/**
 * @file
 * Tests for the extension features beyond the paper's core model:
 * per-GPU embedding lookup skew (§IV-B's uneven-sharding adjustment),
 * ring/tree AllReduce selection, the background communication
 * channel, and the device TDPs behind operational energy.
 */

#include <gtest/gtest.h>

#include "core/layer_processor.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

ModelDesc
skewedDlrm(double skew)
{
    ModelDesc m;
    m.name = "skewed-dlrm";
    m.globalBatchSize = 65536;
    m.contextLength = 1;
    m.isRecommendation = true;
    int emb = m.graph.addLayer(std::make_unique<EmbeddingBagLayer>(
        "EMB", 500, 12385672, 128, 88.32, 4.0, skew));
    int bot = m.graph.addLayer(std::make_unique<MlpLayer>(
        "Bot_MLP", LayerClass::BaseDense,
        std::vector<long>{256, 512, 256, 128}));
    int inter = m.graph.addLayer(std::make_unique<InteractionLayer>(
        "Interact", 501, 128, 512), {emb, bot});
    m.graph.addLayer(std::make_unique<MlpLayer>(
        "Top_MLP", LayerClass::BaseDense,
        std::vector<long>{512, 8192, 8192, 1}), {inter});
    return m;
}

ParallelPlan
dlrmPlan()
{
    ParallelPlan p;
    p.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    p.set(LayerClass::BaseDense,
          HierStrategy{Strategy::TP, Strategy::DDP});
    return p;
}

} // namespace

TEST(LookupSkew, HottestDeviceGatesLookupTime)
{
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    ModelDesc even = skewedDlrm(1.0);
    ModelDesc hot = skewedDlrm(2.0);
    LayerProcessor p_even(cluster, even);
    LayerProcessor p_hot(cluster, hot);
    EXPECT_NEAR(p_hot.forwardTime(hot.graph.layer(0)) /
                    p_even.forwardTime(even.graph.layer(0)),
                2.0, 1e-9);
    // Backward table update scales the same way.
    EXPECT_NEAR(p_hot.backwardTime(hot.graph.layer(0),
                                   TaskSpec::preTraining()) /
                    p_even.backwardTime(even.graph.layer(0),
                                        TaskSpec::preTraining()),
                2.0, 1e-9);
}

TEST(LookupSkew, SkewReducesThroughputMonotonically)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    double prev = 1e300;
    for (double skew : {1.0, 1.25, 1.5, 2.0, 3.0}) {
        PerfReport r = model.evaluate(skewedDlrm(skew),
                                      TaskSpec::preTraining(),
                                      dlrmPlan());
        ASSERT_TRUE(r.valid);
        EXPECT_LT(r.throughput(), prev);
        prev = r.throughput();
    }
}

TEST(LookupSkew, SubUnitySkewIsFatal)
{
    EXPECT_THROW(EmbeddingBagLayer("e", 10, 100, 64, 2.0, 4.0, 0.5),
                 ConfigError);
}

TEST(BackgroundChannel, DisablingItSlowsIterations)
{
    // Ablation of the design choice: without a background channel,
    // gradient AllReduces head-of-line block the embedding gradient
    // All2All.
    ModelDesc model = model_zoo::dlrmA();
    PerfModelOptions with;
    PerfModelOptions without;
    without.backgroundCommChannel = false;
    PerfReport r_with =
        PerfModel(hw_zoo::dlrmTrainingSystem(), with)
            .evaluate(model, TaskSpec::preTraining(), dlrmPlan());
    PerfReport r_without =
        PerfModel(hw_zoo::dlrmTrainingSystem(), without)
            .evaluate(model, TaskSpec::preTraining(), dlrmPlan());
    EXPECT_LT(r_with.iterationTime, r_without.iterationTime);
    // Communication volume is identical; only scheduling differs.
    EXPECT_NEAR(r_with.commTime, r_without.commTime, 1e-12);
}

TEST(AllReduceAlgorithmOption, RingForcedThroughPerfModel)
{
    // Forcing ring on the 256-node system pays per-hop latency on
    // every gradient AllReduce; auto should never be slower.
    ModelDesc model = model_zoo::llama65b();
    ParallelPlan plan = ParallelPlan::fsdpBaseline();
    plan.set(LayerClass::Transformer,
             HierStrategy{Strategy::FSDP, Strategy::DDP});

    PerfModelOptions ring;
    ring.allReduceAlgorithm = AllReduceAlgorithm::Ring;
    ring.ignoreMemory = true;
    PerfModelOptions autosel;
    autosel.allReduceAlgorithm = AllReduceAlgorithm::Auto;
    autosel.ignoreMemory = true;

    PerfReport r_ring =
        PerfModel(hw_zoo::llmTrainingSystem(), ring)
            .evaluate(model, TaskSpec::preTraining(), plan);
    PerfReport r_auto =
        PerfModel(hw_zoo::llmTrainingSystem(), autosel)
            .evaluate(model, TaskSpec::preTraining(), plan);
    EXPECT_LE(r_auto.commTime, r_ring.commTime + 1e-12);
}

TEST(EnergyModel, FasterPlansUseLessEnergy)
{
    // Insight 7 "by extension": fewer GPU-hours means less energy on
    // the same hardware. Energy per sample is devices x TDP / throughput,
    // so on one cluster the faster plan uses less.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    PerfReport fsdp = model.evaluate(model_zoo::dlrmA(),
                                     TaskSpec::preTraining(),
                                     ParallelPlan::fsdpBaseline());
    PerfReport best = model.evaluate(model_zoo::dlrmA(),
                                     TaskSpec::preTraining(),
                                     dlrmPlan());
    ASSERT_TRUE(best.valid && fsdp.valid);
    EXPECT_GT(best.throughput(), fsdp.throughput());
}

TEST(EnergyModel, ZooDevicesCarryTdp)
{
    EXPECT_DOUBLE_EQ(hw_zoo::a100_40().tdpWatts, 400.0);
    EXPECT_DOUBLE_EQ(hw_zoo::a100_80().tdpWatts, 400.0);
    EXPECT_DOUBLE_EQ(hw_zoo::h100().tdpWatts, 700.0);
    EXPECT_DOUBLE_EQ(hw_zoo::mi300x().tdpWatts, 750.0);
    EXPECT_DOUBLE_EQ(hw_zoo::gaudi2().tdpWatts, 600.0);
}

} // namespace madmax
