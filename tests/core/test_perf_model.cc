#include <gtest/gtest.h>

#include "../report_check.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"

namespace madmax
{

namespace
{

ParallelPlan
dlrmDeployedPlan()
{
    ParallelPlan p;
    p.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    p.set(LayerClass::BaseDense,
          HierStrategy{Strategy::TP, Strategy::DDP});
    return p;
}

} // namespace

TEST(PerfModel, ReportIsInternallyConsistent)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    PerfReport r = model.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(),
                                  dlrmDeployedPlan());
    ASSERT_TRUE(r.valid);
    EXPECT_GT(r.iterationTime, 0.0);
    // Overlapped time bounded by serialized time and by compute.
    EXPECT_LE(r.iterationTime, r.serializedTime + 1e-12);
    EXPECT_GE(r.iterationTime, r.computeTime - 1e-12);
    EXPECT_NEAR(r.serializedTime, r.computeTime + r.commTime, 1e-9);
    EXPECT_GE(r.exposedCommTime, 0.0);
    EXPECT_LE(r.exposedCommTime, r.commTime + 1e-12);
    // Throughput = batch / iteration.
    EXPECT_NEAR(r.throughput(),
                r.globalBatchSize / r.iterationTime, 1e-6);
}

TEST(PerfModel, BreakdownsSumToStreamTotals)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    PerfReport r = model.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(),
                                  dlrmDeployedPlan());
    double serialized = 0.0;
    for (const auto &[cat, secs] : r.serializedBreakdown)
        serialized += secs;
    EXPECT_NEAR(serialized, r.serializedTime, 1e-9);

    double exposed = 0.0;
    for (const auto &[cat, secs] : r.exposedBreakdown)
        exposed += secs;
    EXPECT_NEAR(exposed, r.exposedCommTime, 1e-9);

    // DLRM communication is All2All-heavy (O4 / Fig. 4c).
    double a2a = 0.0, other_comm = 0.0;
    for (const auto &[cat, secs] : r.serializedBreakdown) {
        if (cat == EventCategory::All2All)
            a2a += secs;
        else if (cat != EventCategory::Gemm &&
                 cat != EventCategory::EmbeddingLookup)
            other_comm += secs;
    }
    EXPECT_GT(a2a, 0.0);
}

TEST(PerfModel, OomReportHasNoTiming)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ParallelPlan ddp;
    ddp.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    PerfReport r = model.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), ddp);
    EXPECT_FALSE(r.valid);
    EXPECT_DOUBLE_EQ(r.iterationTime, 0.0);
    EXPECT_DOUBLE_EQ(r.throughput(), 0.0);
    EXPECT_FALSE(r.memory.fits());
}

TEST(PerfModel, IgnoreMemoryEvaluatesOomPlans)
{
    // The Fig. 10 "unconstrained by memory" analysis.
    PerfModelOptions opts;
    opts.ignoreMemory = true;
    PerfModel model(hw_zoo::dlrmTrainingSystem(), opts);
    ParallelPlan ddp;
    ddp.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    PerfReport r = model.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), ddp);
    EXPECT_TRUE(r.valid);
    EXPECT_GT(r.throughput(), 0.0);
    EXPECT_FALSE(r.memory.fits()); // Memory verdict still reported.
}

TEST(PerfModel, InferenceFasterThanTraining)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    PerfReport train = model.evaluate(model_zoo::dlrmA(),
                                      TaskSpec::preTraining(),
                                      dlrmDeployedPlan());
    PerfReport inf = model.evaluate(model_zoo::dlrmA(),
                                    TaskSpec::inference(),
                                    dlrmDeployedPlan());
    EXPECT_GT(inf.throughput(), train.throughput());
}

TEST(PerfModel, FineTuningBetweenInferenceAndPreTraining)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ParallelPlan plan = dlrmDeployedPlan();
    double pre = model.evaluate(model_zoo::dlrmA(),
                                TaskSpec::preTraining(), plan)
                     .throughput();
    double ft_dense =
        model.evaluate(model_zoo::dlrmA(),
                       TaskSpec::fineTuning(FineTuneScope::DenseOnly),
                       plan)
            .throughput();
    double inf = model.evaluate(model_zoo::dlrmA(),
                                TaskSpec::inference(), plan)
                     .throughput();
    EXPECT_GE(ft_dense, pre - 1e-6);
    EXPECT_GE(inf, ft_dense - 1e-6);
}

TEST(PerfModel, TokensPerSecondUsesContext)
{
    PerfModel model(hw_zoo::llmTrainingSystem());
    PerfReport r = model.evaluate(model_zoo::llama65b(),
                                  TaskSpec::preTraining(),
                                  ParallelPlan::fsdpBaseline());
    ASSERT_TRUE(r.valid);
    EXPECT_NEAR(r.tokensPerSecond(), r.throughput() * 2048.0, 1e-3);
}

TEST(PerfModel, DeviceHoursNormalization)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    PerfReport r = model.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(),
                                  dlrmDeployedPlan());
    double hours = r.deviceHoursPerSamples(1e9, 128, 1.0);
    double expected = 1e9 / r.throughput() / 3600.0 * 128.0;
    EXPECT_NEAR(hours, expected, expected * 1e-9);
    // Peak-ratio scales linearly (Fig. 16 normalization).
    EXPECT_NEAR(r.deviceHoursPerSamples(1e9, 128, 2.0), 2.0 * hours,
                hours * 1e-9);
}

TEST(PerfModel, KeepTimelineToggle)
{
    // Timelines are opt-in: the default model keeps none.
    PerfModel slim(hw_zoo::dlrmTrainingSystem());
    EXPECT_FALSE(slim.options().keepTimeline);
    PerfReport r = slim.evaluate(model_zoo::dlrmA(),
                                 TaskSpec::preTraining(),
                                 dlrmDeployedPlan());
    EXPECT_TRUE(r.timeline.events.empty());

    PerfModelOptions with_tl;
    with_tl.keepTimeline = true;
    PerfModel fat(hw_zoo::dlrmTrainingSystem(), with_tl);
    PerfReport r2 = fat.evaluate(model_zoo::dlrmA(),
                                 TaskSpec::preTraining(),
                                 dlrmDeployedPlan());
    EXPECT_FALSE(r2.timeline.events.empty());

    // Writing the timeline during the splice changes no report bit.
    r2.timeline = Timeline{};
    testing::expectBitIdentical(r, r2);
}

TEST(PerfModel, WithClusterRebinds)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    PerfModel boosted(model.cluster().withComputeScale(10.0),
                      model.options());
    double t1 = model
                    .evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(),
                              dlrmDeployedPlan())
                    .computeTime;
    double t2 = boosted
                    .evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(),
                              dlrmDeployedPlan())
                    .computeTime;
    EXPECT_LT(t2, t1);
}

// Property sweep over the whole model zoo: every model evaluates
// under the FSDP baseline on its natural system without internal
// errors, and reports stay consistent.
class ZooEvaluation : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ZooEvaluation, FsdpBaselineIsWellFormed)
{
    std::vector<ModelDesc> suite = model_zoo::tableIISuite();
    const ModelDesc &m = suite[GetParam()];
    ClusterSpec cluster = m.isRecommendation
        ? hw_zoo::dlrmTrainingSystem()
        : hw_zoo::llmTrainingSystem();
    PerfModel model(cluster);
    PerfReport r = model.evaluate(m, TaskSpec::preTraining(),
                                  ParallelPlan::fsdpBaseline());
    ASSERT_TRUE(r.valid) << m.name;
    EXPECT_GT(r.throughput(), 0.0) << m.name;
    EXPECT_LE(r.iterationTime, r.serializedTime + 1e-12) << m.name;
    EXPECT_GE(r.overlapFraction(), 0.0) << m.name;
    EXPECT_LE(r.overlapFraction(), 1.0 + 1e-12) << m.name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooEvaluation,
                         ::testing::Range<size_t>(0, 10));

// Scaling properties (Fig. 19 mechanics).
TEST(PerfModelScaling, BandwidthSpeedsUpComm)
{
    ClusterSpec base = hw_zoo::dlrmTrainingSystem();
    PerfModel slow(base);
    PerfModel fast(base.withInterBandwidthScale(10.0));
    ParallelPlan plan = dlrmDeployedPlan();
    PerfReport r1 = slow.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), plan);
    PerfReport r2 = fast.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), plan);
    EXPECT_LT(r2.commTime, r1.commTime);
    EXPECT_GT(r2.throughput(), r1.throughput());
    // Compute is untouched.
    EXPECT_NEAR(r2.computeTime, r1.computeTime, 1e-12);
}

TEST(PerfModelScaling, ComputeScaleLeavesCommAlone)
{
    ClusterSpec base = hw_zoo::dlrmTrainingSystem();
    PerfModel slow(base);
    PerfModel fast(base.withComputeScale(10.0));
    ParallelPlan plan = dlrmDeployedPlan();
    PerfReport r1 = slow.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), plan);
    PerfReport r2 = fast.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), plan);
    EXPECT_NEAR(r2.commTime, r1.commTime, 1e-12);
    EXPECT_LT(r2.computeTime, r1.computeTime);
}

} // namespace madmax
