#include "core/interval_sweep.hh"

#include <algorithm>

namespace madmax
{

void
coveredLengthsInto(const std::vector<Interval> &cover,
                   const std::vector<Interval> &queries,
                   const std::vector<size_t> &order,
                   std::vector<double> &out)
{
    out.resize(queries.size());
    size_t base = 0;
    for (size_t qi : order) {
        const Interval &q = queries[qi];
        if (q.hi <= q.lo) {
            out[qi] = 0.0;
            continue;
        }
        while (base < cover.size() && cover[base].hi <= q.lo)
            ++base;
        double covered = 0.0;
        for (size_t j = base; j < cover.size() && cover[j].lo < q.hi;
             ++j) {
            double a = std::max(q.lo, cover[j].lo);
            double b = std::min(q.hi, cover[j].hi);
            if (b > a)
                covered += b - a;
        }
        out[qi] = covered;
    }
}

} // namespace madmax
