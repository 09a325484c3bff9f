#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

TEST(Sweep, AxisNamesAndList)
{
    EXPECT_EQ(toString(HwAxis::Compute), "compute");
    EXPECT_EQ(toString(HwAxis::InterBandwidth), "inter-node-bw");
    EXPECT_EQ(toString(HwAxis::All), "all");
    EXPECT_EQ(allHwAxes().size(), 6u);
}

TEST(Sweep, ScaleAxisTouchesOnlyItsCapability)
{
    ClusterSpec base = hw_zoo::dlrmTrainingSystem();
    ClusterSpec c = scaleAxis(base, HwAxis::Compute, 10.0);
    EXPECT_DOUBLE_EQ(c.device.peakFlopsTf32,
                     base.device.peakFlopsTf32 * 10.0);
    EXPECT_DOUBLE_EQ(c.device.hbmBandwidth, base.device.hbmBandwidth);

    ClusterSpec all = scaleAxis(base, HwAxis::All, 10.0);
    EXPECT_DOUBLE_EQ(all.device.peakFlopsTf32,
                     base.device.peakFlopsTf32 * 10.0);
    EXPECT_DOUBLE_EQ(all.device.hbmCapacity,
                     base.device.hbmCapacity * 10.0);
    EXPECT_DOUBLE_EQ(all.device.hbmBandwidth,
                     base.device.hbmBandwidth * 10.0);
    EXPECT_DOUBLE_EQ(all.device.intraNodeBandwidth,
                     base.device.intraNodeBandwidth * 10.0);
    EXPECT_DOUBLE_EQ(all.device.interNodeBandwidth,
                     base.device.interNodeBandwidth * 10.0);
}

TEST(Sweep, ScalingStudyShape)
{
    // Fig. 19: individual-axis scaling is sub-linear; scaling all
    // axes concurrently is super-linear relative to the best single
    // axis.
    std::vector<ScalingResult> results =
        hardwareScalingStudy(hw_zoo::dlrmTrainingSystem(),
                             model_zoo::dlrmA(), TaskSpec::preTraining(),
                             10.0);
    ASSERT_EQ(results.size(), 6u);

    double best_single = 0.0, all_axes = 0.0;
    for (const ScalingResult &r : results) {
        EXPECT_GE(r.speedup, 0.99) << toString(r.axis);
        EXPECT_TRUE(r.best.report.valid) << toString(r.axis);
        if (r.axis == HwAxis::All)
            all_axes = r.speedup;
        else
            best_single = std::max(best_single, r.speedup);
    }
    EXPECT_LT(best_single, 10.0);      // Sub-linear individually.
    EXPECT_GT(all_axes, best_single);  // Joint beats any single axis.
}

TEST(Sweep, InterBandwidthMattersMostForDlrm)
{
    // Insight 10: for All2All-bound DLRM-A, inter-node bandwidth is
    // the most valuable single axis.
    std::vector<ScalingResult> results = hardwareScalingStudy(
        hw_zoo::dlrmTrainingSystem(), model_zoo::dlrmA(),
        TaskSpec::preTraining(), 10.0,
        {HwAxis::Compute, HwAxis::HbmBandwidth,
         HwAxis::InterBandwidth});
    double inter = 0.0, others = 0.0;
    for (const ScalingResult &r : results) {
        if (r.axis == HwAxis::InterBandwidth)
            inter = r.speedup;
        else
            others = std::max(others, r.speedup);
    }
    EXPECT_GT(inter, others);
}

TEST(Sweep, ScalingStudyMatchesPerClusterExplorer)
{
    // The study searches every scaled cluster in one exploration; each
    // result must be bitwise the plan and report a standalone
    // StrategyExplorer::best() finds on that cluster, and the speedup
    // must be the ratio of those throughputs.
    struct Case
    {
        ModelDesc model;
        ClusterSpec cluster;
        TaskSpec task;
    };
    const Case cases[] = {
        {model_zoo::dlrmA(), hw_zoo::dlrmTrainingSystem(),
         TaskSpec::preTraining()},
        {model_zoo::gpt3(), hw_zoo::llmTrainingSystem(),
         TaskSpec::inference()},
    };
    auto bits = [](double v) {
        uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    for (const Case &c : cases) {
        std::vector<ScalingResult> results =
            hardwareScalingStudy(c.cluster, c.model, c.task, 10.0);
        ASSERT_EQ(results.size(), allHwAxes().size());
        const double base = StrategyExplorer(PerfModel(c.cluster))
                                .best(c.model, c.task)
                                .report.throughput();
        for (const ScalingResult &r : results) {
            ExplorationResult want =
                StrategyExplorer(
                    PerfModel(scaleAxis(c.cluster, r.axis, 10.0)))
                    .best(c.model, c.task);
            SCOPED_TRACE(c.model.name + " " + toString(r.axis));
            EXPECT_EQ(r.best.plan.toString(), want.plan.toString());
            EXPECT_EQ(r.best.plan.fsdpPrefetch, want.plan.fsdpPrefetch);
            EXPECT_EQ(toJson(r.best.report).dump(2),
                      toJson(want.report).dump(2));
            EXPECT_EQ(bits(r.best.report.throughput()),
                      bits(want.report.throughput()));
            EXPECT_EQ(bits(r.speedup),
                      bits(want.report.throughput() / base));
        }
    }
}

TEST(Sweep, NoFitThrowsLikeBest)
{
    // A point where nothing fits fails the study with best()'s error.
    ClusterSpec tiny = hw_zoo::llmTrainingSystem().withNumNodes(1);
    EXPECT_THROW(StrategyExplorer(PerfModel(tiny))
                     .best(model_zoo::gpt3(), TaskSpec::preTraining()),
                 ConfigError);
    EXPECT_THROW(hardwareScalingStudy(tiny, model_zoo::gpt3(),
                                      TaskSpec::preTraining(), 10.0,
                                      {HwAxis::Compute}),
                 ConfigError);
}

TEST(Sweep, NormalizedGpuHours)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(model);
    PerfReport r = explorer.baseline(model_zoo::dlrmA(),
                                     TaskSpec::preTraining());
    double a100_peak = hw_zoo::a100_40().peakFlopsTensor16;
    double hours =
        normalizedGpuHours(r, model.cluster(), 1e9, a100_peak);
    // A100 cluster: ratio is exactly 1.
    EXPECT_NEAR(hours, r.deviceHoursPerSamples(1e9, 128, 1.0), 1e-9);

    // H100 cluster: same raw hours weigh ~2.42x more.
    ClusterSpec h100 = hw_zoo::h100System();
    double ratio = hw_zoo::h100().peakFlopsTensor16 / a100_peak;
    PerfReport rh = PerfModel(h100).evaluate(
        model_zoo::dlrmA(), TaskSpec::preTraining(),
        ParallelPlan::fsdpBaseline());
    EXPECT_NEAR(normalizedGpuHours(rh, h100, 1e9, a100_peak),
                rh.deviceHoursPerSamples(1e9, 128, ratio), 1e-9);

    EXPECT_THROW(normalizedGpuHours(r, model.cluster(), 1e9, 0.0),
                 ConfigError);
}

} // namespace madmax
