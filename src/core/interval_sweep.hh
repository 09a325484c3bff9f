/**
 * @file
 * Interval arithmetic for exposed-communication accounting.
 *
 * One contract: a communication event's exposed time is its length
 * minus its coverage under the *merged* compute-busy intervals (the
 * cover, which spliceSegments grows in place as the in-order compute
 * stream is scheduled). The aggregate exposed-comm figure and the
 * per-category exposed breakdown both read that one coverage,
 * computed by a linear sweep per comm channel: a channel's intervals
 * arrive in ascending-start order, so a cursor into the disjoint,
 * sorted cover only ever moves forward.
 *
 * For each query interval the intersection lengths are accumulated in
 * ascending cover order, so each coverage double is the one the
 * quadratic per-event loop over the same cover produces.
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
 * Covered length of some query intervals under one cover.
 *
 * @param cover   Disjoint intervals sorted by ascending lo (e.g. the
 *                merged compute-busy intervals of a sequential stream).
 * @param queries Arbitrary intervals; empty/inverted ones cover 0.
 * @param order   The queries to measure, each once, in ascending-lo
 *                order (ties in any order: the per-query sums only
 *                depend on the cover order) — e.g. one comm channel's.
 * @param out     Resized to queries.size(); out[i] = total length of
 *                queries[i] intersected with @p cover, intersection
 *                terms added in ascending cover order, for every i in
 *                @p order. Other entries keep their values.
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
