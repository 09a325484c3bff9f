#include "core/interval_sweep.hh"

#include <algorithm>

namespace madmax
{

void
mergeSortedIntervalsInto(const std::vector<Interval> &in,
                         std::vector<Interval> &out)
{
    out.clear();
    if (in.empty())
        return;
    out.push_back(in.front());
    for (size_t i = 1; i < in.size(); ++i) {
        if (in[i].lo <= out.back().hi)
            out.back().hi = std::max(out.back().hi, in[i].hi);
        else
            out.push_back(in[i]);
    }
}

void
coveredLengthsPairInto(const std::vector<Interval> &coverA,
                       const std::vector<Interval> &coverB,
                       const std::vector<Interval> &queries,
                       const std::vector<size_t> &order,
                       std::vector<double> &outA,
                       std::vector<double> &outB)
{
    // The two covers never interact: each has its own cursor and adds
    // its intersection terms in ascending cover order, so each output
    // double is bit-identical to a single-cover sweep of that cover.
    outA.resize(queries.size());
    outB.resize(queries.size());
    size_t baseA = 0;
    size_t baseB = 0;
    for (size_t qi : order) {
        const Interval &q = queries[qi];
        if (q.hi <= q.lo) {
            outA[qi] = 0.0;
            outB[qi] = 0.0;
            continue;
        }
        while (baseA < coverA.size() && coverA[baseA].hi <= q.lo)
            ++baseA;
        double coveredA = 0.0;
        for (size_t j = baseA;
             j < coverA.size() && coverA[j].lo < q.hi; ++j) {
            double a = std::max(q.lo, coverA[j].lo);
            double b = std::min(q.hi, coverA[j].hi);
            if (b > a)
                coveredA += b - a;
        }
        outA[qi] = coveredA;
        while (baseB < coverB.size() && coverB[baseB].hi <= q.lo)
            ++baseB;
        double coveredB = 0.0;
        for (size_t j = baseB;
             j < coverB.size() && coverB[j].lo < q.hi; ++j) {
            double a = std::max(q.lo, coverB[j].lo);
            double b = std::min(q.hi, coverB[j].hi);
            if (b > a)
                coveredB += b - a;
        }
        outB[qi] = coveredB;
    }
}

} // namespace madmax
