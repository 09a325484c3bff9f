#include "dse/sweep.hh"

#include "dse/pareto_engine.hh"
#include "util/logging.hh"

namespace madmax
{

std::string
toString(HwAxis axis)
{
    switch (axis) {
      case HwAxis::Compute: return "compute";
      case HwAxis::HbmCapacity: return "hbm-capacity";
      case HwAxis::HbmBandwidth: return "hbm-bandwidth";
      case HwAxis::IntraBandwidth: return "intra-node-bw";
      case HwAxis::InterBandwidth: return "inter-node-bw";
      case HwAxis::All: return "all";
    }
    panic("toString: unknown HwAxis");
}

const std::vector<HwAxis> &
allHwAxes()
{
    static const std::vector<HwAxis> axes = {
        HwAxis::Compute, HwAxis::HbmCapacity, HwAxis::HbmBandwidth,
        HwAxis::IntraBandwidth, HwAxis::InterBandwidth, HwAxis::All};
    return axes;
}

ClusterSpec
scaleAxis(const ClusterSpec &cluster, HwAxis axis, double factor)
{
    switch (axis) {
      case HwAxis::Compute:
        return cluster.withComputeScale(factor);
      case HwAxis::HbmCapacity:
        return cluster.withHbmCapacityScale(factor);
      case HwAxis::HbmBandwidth:
        return cluster.withHbmBandwidthScale(factor);
      case HwAxis::IntraBandwidth:
        return cluster.withIntraBandwidthScale(factor);
      case HwAxis::InterBandwidth:
        return cluster.withInterBandwidthScale(factor);
      case HwAxis::All:
        return cluster.withComputeScale(factor)
            .withHbmCapacityScale(factor)
            .withHbmBandwidthScale(factor)
            .withIntraBandwidthScale(factor)
            .withInterBandwidthScale(factor);
    }
    panic("scaleAxis: unknown HwAxis");
}

std::vector<ScalingResult>
hardwareScalingStudy(const ClusterSpec &cluster, const ModelDesc &desc,
                     const TaskSpec &task, double factor,
                     const std::vector<HwAxis> &axes, EvalEngine *engine)
{
    // Hardware point 0 is the unscaled cluster, point i + 1 is axes[i].
    std::vector<HardwarePoint> points = {HardwarePoint{"", cluster}};
    for (HwAxis axis : axes)
        points.push_back(HardwarePoint{"", scaleAxis(cluster, axis, factor)});
    ParetoOptions options;
    options.includeBaselines = false;
    ParetoFrontier frontier =
        ParetoEngine(std::move(points), engine).explore(desc, task, options);

    std::vector<const ParetoCandidate *> best(axes.size() + 1, nullptr);
    for (const ParetoCandidate &c : frontier.bestPerHw)
        best[c.hwIndex] = &c;
    for (const ParetoCandidate *c : best) {
        if (!c) {
            fatal("StrategyExplorer: no valid plan fits device memory "
                  "for '" + desc.name + "'");
        }
    }
    const double base_throughput = best[0]->report.throughput();

    std::vector<ScalingResult> out;
    out.reserve(axes.size());
    for (size_t i = 0; i < axes.size(); ++i) {
        ScalingResult r;
        r.axis = axes[i];
        r.factor = factor;
        r.best.plan = best[i + 1]->plan;
        r.best.report = best[i + 1]->report;
        r.speedup = base_throughput > 0.0
            ? r.best.report.throughput() / base_throughput
            : 0.0;
        out.push_back(std::move(r));
    }
    return out;
}

double
normalizedGpuHours(const PerfReport &report, const ClusterSpec &cluster,
                   double samples, double a100_peak_flops)
{
    if (a100_peak_flops <= 0.0)
        fatal("normalizedGpuHours: a100_peak_flops must be positive");
    double ratio =
        cluster.device.peakFlopsTensor16 / a100_peak_flops;
    return report.deviceHoursPerSamples(samples, cluster.numDevices(),
                                        ratio);
}

} // namespace madmax
