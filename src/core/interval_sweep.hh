/**
 * @file
 * Shared interval arithmetic for exposed-communication accounting.
 *
 * Both historical call sites — OverlapSimulator::schedule's aggregate
 * exposed-comm figure and PerfModel's per-category exposed breakdown —
 * used to re-derive comm-vs-compute overlaps with an O(comm x compute)
 * double loop each. They now share one linear sweep: comm intervals
 * are visited in ascending-start order and a cursor into the disjoint,
 * sorted compute-busy interval list only ever moves forward.
 *
 * Bitwise contract: for each query interval the intersection lengths
 * are accumulated in ascending cover order, exactly as the old
 * per-event loops did, so every produced double is bit-identical to
 * the quadratic implementation it replaces.
 */

#ifndef MADMAX_CORE_INTERVAL_SWEEP_HH
#define MADMAX_CORE_INTERVAL_SWEEP_HH

#include <cstddef>
#include <vector>

namespace madmax
{

/** Half-open interval [lo, hi) on the time axis. */
struct Interval
{
    double lo;
    double hi;
};

/**
 * Merge overlapping intervals of @p in, which must be sorted by
 * ascending lo (e.g. the busy intervals of a sequential stream),
 * writing into a caller-owned buffer — the allocation- and sort-free
 * form the scheduling hot path uses.
 */
void mergeSortedIntervalsInto(const std::vector<Interval> &in,
                              std::vector<Interval> &out);

/**
 * Covered length of each query interval under two covers, computed
 * in one pass over a shared query visit order.
 *
 * @param coverA, coverB Disjoint intervals sorted by ascending lo
 *                (e.g. the merged and the raw compute-busy intervals
 *                of a sequential stream).
 * @param queries Arbitrary intervals; empty/inverted ones cover 0.
 * @param order   Visits every query exactly once in ascending-lo
 *                order (ties in any order: the per-query sums only
 *                depend on the cover order).
 * @param outA, outB outA[i] / outB[i] = total length of queries[i]
 *                intersected with coverA / coverB, intersection terms
 *                added in ascending cover order.
 *
 * Each cover keeps a forward-only cursor, so the sweep is linear in
 * practice, where the old per-query scan over the full cover list was
 * O(Q x C) always.
 */
void coveredLengthsPairInto(const std::vector<Interval> &coverA,
                            const std::vector<Interval> &coverB,
                            const std::vector<Interval> &queries,
                            const std::vector<std::size_t> &order,
                            std::vector<double> &outA,
                            std::vector<double> &outB);

} // namespace madmax

#endif // MADMAX_CORE_INTERVAL_SWEEP_HH
