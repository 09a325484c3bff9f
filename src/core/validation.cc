#include "core/validation.hh"

#include <cmath>

#include "util/strfmt.hh"
#include "util/table.hh"

namespace madmax
{

double
ValidationEntry::accuracy() const
{
    if (measured == 0.0)
        return modeled == 0.0 ? 1.0 : 0.0;
    return 1.0 - std::abs(modeled - measured) / std::abs(measured);
}

double
ValidationReport::meanAccuracy() const
{
    if (entries.empty())
        return 0.0;
    double acc = 0.0;
    for (const ValidationEntry &e : entries)
        acc += e.accuracy();
    return acc / static_cast<double>(entries.size());
}

double
ValidationReport::minAccuracy() const
{
    double worst = 1.0;
    for (const ValidationEntry &e : entries)
        worst = std::min(worst, e.accuracy());
    return worst;
}

std::string
ValidationReport::toString() const
{
    AsciiTable table({"metric", "measured", "modeled", "accuracy"});
    for (const ValidationEntry &e : entries) {
        auto fmt = [&](double v) {
            return e.unit == ValidationUnit::Fraction ? formatPercent(v)
                                                      : formatTime(v);
        };
        table.addRow({e.metric, fmt(e.measured), fmt(e.modeled),
                      formatPercent(e.accuracy())});
    }
    return table.toString() +
        strfmt("mean accuracy %s, worst %s\n",
               formatPercent(meanAccuracy()).c_str(),
               formatPercent(minAccuracy()).c_str());
}

ValidationReport
validate(const PerfReport &report, const MeasuredReference &reference)
{
    ValidationReport out;
    for (const auto &[cat, measured] : reference.serializedBreakdown) {
        if (measured <= 0.0)
            continue;
        out.entries.push_back(ValidationEntry{
            "serialized " + toString(cat), measured,
            categorySeconds(report.serializedBreakdown, cat)});
    }
    if (reference.iterationTime > 0.0) {
        out.entries.push_back(ValidationEntry{
            "iteration time", reference.iterationTime,
            report.iterationTime});
    }
    if (reference.exposedFraction >= 0.0) {
        out.entries.push_back(ValidationEntry{
            "exposed comm fraction", reference.exposedFraction,
            report.exposedFraction(), ValidationUnit::Fraction});
    }
    return out;
}

double
modelFlopsUtilization(const PerfReport &report, const ModelDesc &desc,
                      const ClusterSpec &cluster, bool training)
{
    if (!report.valid || report.iterationTime <= 0.0)
        return 0.0;
    double pass_factor = training ? 3.0 : 1.0;
    double model_flops = pass_factor *
        desc.graph.totals().forwardFlopsPerSample *
        static_cast<double>(desc.globalBatchSize);
    return model_flops /
        (report.iterationTime *
         cluster.aggregatePeakFlops(desc.computeDtype));
}

} // namespace madmax
