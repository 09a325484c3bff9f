/**
 * @file
 * Interval arithmetic for exposed-communication accounting.
 *
 * One contract: a communication event's exposed time is its length
 * minus its coverage under the *merged* compute-busy intervals. The
 * aggregate exposed-comm figure and the per-category exposed
 * breakdown both read that one coverage, computed by a single linear
 * sweep: comm intervals are visited in ascending-start order and a
 * cursor into the disjoint, sorted cover only ever moves forward.
 *
 * For each query interval the intersection lengths are accumulated in
 * ascending cover order, so each coverage double is the one the
 * quadratic per-event loop over the same cover produced.
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
 * Covered length of each query interval under one cover.
 *
 * @param cover   Disjoint intervals sorted by ascending lo (e.g. the
 *                merged compute-busy intervals of a sequential stream).
 * @param queries Arbitrary intervals; empty/inverted ones cover 0.
 * @param order   Visits every query exactly once in ascending-lo
 *                order (ties in any order: the per-query sums only
 *                depend on the cover order).
 * @param out     out[i] = total length of queries[i] intersected with
 *                @p cover, intersection terms added in ascending
 *                cover order.
 *
 * The cover keeps a forward-only cursor, so the sweep is linear in
 * practice, where the old per-query scan over the full cover list was
 * O(Q x C) always.
 */
void coveredLengthsInto(const std::vector<Interval> &cover,
                        const std::vector<Interval> &queries,
                        const std::vector<std::size_t> &order,
                        std::vector<double> &out);

} // namespace madmax

#endif // MADMAX_CORE_INTERVAL_SWEEP_HH
