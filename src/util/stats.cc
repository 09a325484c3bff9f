#include "util/stats.hh"

#include <numeric>

#include "util/logging.hh"

namespace madmax
{

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        panic("mean() of empty vector");
    return std::accumulate(values.begin(), values.end(), 0.0) /
        static_cast<double>(values.size());
}

} // namespace madmax
