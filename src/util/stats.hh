/**
 * @file
 * Small statistics helpers for the figure benches (fig10 averages
 * per-system throughput).
 */

#ifndef MADMAX_UTIL_STATS_HH
#define MADMAX_UTIL_STATS_HH

#include <vector>

namespace madmax
{

/** Arithmetic mean. @pre !values.empty() */
double mean(const std::vector<double> &values);

} // namespace madmax

#endif // MADMAX_UTIL_STATS_HH
