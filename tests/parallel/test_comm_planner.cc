#include <gtest/gtest.h>

#include <algorithm>

#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "parallel/comm_planner.hh"

namespace madmax
{

namespace
{

int
countOps(const std::vector<CommOp> &ops, Collective kind, Phase phase)
{
    return static_cast<int>(std::count_if(
        ops.begin(), ops.end(), [&](const CommOp &op) {
            return op.kind == kind && op.phase == phase;
        }));
}

const CommOp *
findOp(const std::vector<CommOp> &ops, Collective kind, Phase phase)
{
    for (const CommOp &op : ops) {
        if (op.kind == kind && op.phase == phase)
            return &op;
    }
    return nullptr;
}

} // namespace

class CommPlannerDlrm : public ::testing::Test
{
  protected:
    CommPlannerDlrm()
        : desc_(model_zoo::dlrmA()), cluster_(hw_zoo::dlrmTrainingSystem())
    {
    }

    ModelDesc desc_;
    ClusterSpec cluster_;
};

TEST_F(CommPlannerDlrm, ShardedEmbeddingEmitsBlockingAll2Alls)
{
    ParallelPlan plan;
    plan.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    plan.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    CommPlanner planner(desc_, TaskSpec::preTraining(), plan, cluster_);

    std::vector<CommOp> emb_ops = planner.planLayer(0);
    // Forward redistribution + backward gradient routing.
    ASSERT_EQ(countOps(emb_ops, Collective::All2All, Phase::Forward), 1);
    ASSERT_EQ(countOps(emb_ops, Collective::All2All, Phase::Backward), 1);

    const CommOp *fwd = findOp(emb_ops, Collective::All2All,
                               Phase::Forward);
    EXPECT_TRUE(fwd->blocking);
    EXPECT_EQ(fwd->position, CommPosition::Post);
    EXPECT_EQ(fwd->scope, CommScope::Global);
    // Send bytes: pooled output x batch / devices.
    double pooled =
        desc_.graph.layer(0).outputBytesPerSample(4.0);
    EXPECT_NEAR(fwd->bytes,
                pooled * desc_.globalBatchSize / cluster_.numDevices(),
                1.0);

    const CommOp *bwd = findOp(emb_ops, Collective::All2All,
                               Phase::Backward);
    EXPECT_EQ(bwd->position, CommPosition::Pre);
    EXPECT_TRUE(bwd->blocking);
}

TEST_F(CommPlannerDlrm, FrozenEmbeddingSkipsGradientAll2All)
{
    // Insight 5 mechanism: fine-tuning only the dense layers removes
    // the backward embedding All2All but keeps the forward one.
    ParallelPlan plan;
    CommPlanner planner(desc_,
                        TaskSpec::fineTuning(FineTuneScope::DenseOnly),
                        plan, cluster_);
    std::vector<CommOp> emb_ops = planner.planLayer(0);
    EXPECT_EQ(countOps(emb_ops, Collective::All2All, Phase::Forward), 1);
    EXPECT_EQ(countOps(emb_ops, Collective::All2All, Phase::Backward), 0);
}

TEST_F(CommPlannerDlrm, InferenceHasNoBackwardComms)
{
    CommPlanner planner(desc_, TaskSpec::inference(),
                        ParallelPlan::fsdpBaseline(), cluster_);
    for (const CommOp &op : planner.planAll())
        EXPECT_EQ(op.phase, Phase::Forward) << suffixText(op.suffix);
}

TEST_F(CommPlannerDlrm, DdpEmitsNonBlockingGradientAllReduce)
{
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    CommPlanner planner(desc_, TaskSpec::preTraining(), plan, cluster_);

    // Top MLP is layer 3.
    std::vector<CommOp> ops = planner.planLayer(3);
    ASSERT_EQ(countOps(ops, Collective::AllReduce, Phase::Backward), 1);
    const CommOp *ar = findOp(ops, Collective::AllReduce, Phase::Backward);
    EXPECT_FALSE(ar->blocking); // Off the backprop critical path.
    EXPECT_EQ(ar->scope, CommScope::Global);
    // Full gradient tensor.
    double p_bytes = desc_.graph.layer(3).paramCount() * 4.0;
    EXPECT_NEAR(ar->bytes, p_bytes, 1.0);
    // No forward comm for DDP.
    EXPECT_EQ(countOps(ops, Collective::AllReduce, Phase::Forward), 0);
}

TEST_F(CommPlannerDlrm, FsdpEmitsGatherGatherScatter)
{
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense, HierStrategy{Strategy::FSDP});
    CommPlanner planner(desc_, TaskSpec::preTraining(), plan, cluster_);

    std::vector<CommOp> ops = planner.planLayer(3);
    EXPECT_EQ(countOps(ops, Collective::AllGather, Phase::Forward), 1);
    EXPECT_EQ(countOps(ops, Collective::AllGather, Phase::Backward), 1);
    EXPECT_EQ(countOps(ops, Collective::ReduceScatter, Phase::Backward),
              1);

    const CommOp *ag = findOp(ops, Collective::AllGather, Phase::Forward);
    EXPECT_TRUE(ag->blocking);
    EXPECT_EQ(ag->position, CommPosition::Pre);
    const CommOp *rs =
        findOp(ops, Collective::ReduceScatter, Phase::Backward);
    EXPECT_FALSE(rs->blocking);

    // Inference keeps only the forward gather.
    CommPlanner inf(desc_, TaskSpec::inference(), plan, cluster_);
    std::vector<CommOp> iops = inf.planLayer(3);
    EXPECT_EQ(countOps(iops, Collective::AllGather, Phase::Forward), 1);
    EXPECT_EQ(countOps(iops, Collective::AllGather, Phase::Backward), 0);
    EXPECT_EQ(countOps(iops, Collective::ReduceScatter, Phase::Backward),
              0);
}

TEST_F(CommPlannerDlrm, TpEmitsBlockingActivationAllReduces)
{
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});
    CommPlanner planner(desc_, TaskSpec::preTraining(), plan, cluster_);

    std::vector<CommOp> ops = planner.planLayer(3);
    // TP partial sums (intra) fwd + bwd, DDP gradient AR (inter).
    const CommOp *fwd_ar =
        findOp(ops, Collective::AllReduce, Phase::Forward);
    ASSERT_NE(fwd_ar, nullptr);
    EXPECT_TRUE(fwd_ar->blocking);
    EXPECT_EQ(fwd_ar->scope, CommScope::Intra);
    // Activation volume: per-boundary partial sums x the TP group's
    // batch share (global batch / numNodes data-parallel ways).
    double per_sample = desc_.graph.layer(3).tpCommBytesPerSample(4.0);
    EXPECT_NEAR(fwd_ar->bytes,
                per_sample * desc_.globalBatchSize / cluster_.numNodes,
                1.0);

    int bwd_ars = countOps(ops, Collective::AllReduce, Phase::Backward);
    EXPECT_EQ(bwd_ars, 2); // TP input-grad AR + DDP weight-grad AR.

    // The DDP gradient AR operates on the TP-sharded tensor (P/8).
    bool found_inter = false;
    for (const CommOp &op : ops) {
        if (op.kind == Collective::AllReduce &&
            op.phase == Phase::Backward && op.scope == CommScope::Inter) {
            found_inter = true;
            EXPECT_FALSE(op.blocking);
            EXPECT_NEAR(op.bytes,
                        desc_.graph.layer(3).paramCount() * 4.0 / 8.0,
                        1.0);
        }
    }
    EXPECT_TRUE(found_inter);
}

TEST(CommPlannerMoe, ExpertParallelismEmitsDispatchAndCombine)
{
    ModelDesc desc = model_zoo::dlrmAMoe();
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    ParallelPlan plan;
    plan.set(LayerClass::MoE, HierStrategy{Strategy::MP});
    CommPlanner planner(desc, TaskSpec::preTraining(), plan, cluster);

    int moe_idx = 0;
    while (desc.graph.layer(moe_idx).layerClass() != LayerClass::MoE)
        ++moe_idx;
    std::vector<CommOp> ops = planner.planLayer(moe_idx);
    // Dispatch + combine forward, and both reversed in backward.
    EXPECT_EQ(countOps(ops, Collective::All2All, Phase::Forward), 2);
    EXPECT_EQ(countOps(ops, Collective::All2All, Phase::Backward), 2);
    for (const CommOp &op : ops)
        EXPECT_TRUE(op.blocking) << suffixText(op.suffix);

    // Inference keeps the forward routing only.
    CommPlanner inf(desc, TaskSpec::inference(), plan, cluster);
    std::vector<CommOp> iops = inf.planLayer(moe_idx);
    EXPECT_EQ(countOps(iops, Collective::All2All, Phase::Forward), 2);
    EXPECT_EQ(countOps(iops, Collective::All2All, Phase::Backward), 0);
}

TEST(CommPlannerLlm, FsdpBaselinePlansPerLayerGathers)
{
    ModelDesc desc = model_zoo::llama65b();
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    CommPlanner planner(desc, TaskSpec::preTraining(),
                        ParallelPlan::fsdpBaseline(), cluster);

    std::vector<CommOp> all = planner.planAll();
    int ags = countOps(all, Collective::AllGather, Phase::Forward);
    // One gather per layer: embedding + 80 x (attn + ffn).
    EXPECT_EQ(ags, desc.graph.numLayers());
    int rss = countOps(all, Collective::ReduceScatter, Phase::Backward);
    EXPECT_EQ(rss, desc.graph.numLayers());
}

TEST(CommPlannerLlm, ParamlessLayersEmitNothing)
{
    ModelDesc desc = model_zoo::dlrmA();
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense, HierStrategy{Strategy::FSDP});
    CommPlanner planner(desc, TaskSpec::preTraining(), plan, cluster);
    // The interaction layer (index 2) has no parameters; FSDP should
    // not gather anything for it (TP would still reduce partial
    // activations, but FSDP is parameter-driven).
    std::vector<CommOp> ops = planner.planLayer(2);
    EXPECT_EQ(countOps(ops, Collective::AllGather, Phase::Forward), 0);
    EXPECT_EQ(countOps(ops, Collective::ReduceScatter, Phase::Backward),
              0);
}

TEST(CommPlannerLlm, SingleNodeClusterSkipsInterLevels)
{
    ModelDesc desc = model_zoo::dlrmA();
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem().withNumNodes(1);
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});
    CommPlanner planner(desc, TaskSpec::preTraining(), plan, cluster);
    for (const CommOp &op : planner.planLayer(3)) {
        // The inter level has group size 1: no ops land there.
        EXPECT_NE(op.scope, CommScope::Inter) << suffixText(op.suffix);
    }
}

TEST(Phase, Names)
{
    EXPECT_EQ(toString(Phase::Forward), "fwd");
    EXPECT_EQ(toString(Phase::Backward), "bwd");
}

} // namespace madmax
