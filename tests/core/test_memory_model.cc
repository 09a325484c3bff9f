#include <gtest/gtest.h>

#include <vector>

#include "core/memory_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace madmax
{

using namespace units;
using memory_model::evaluate;

TEST(MemoryModel, UsableCapacityAppliesReserve)
{
    MemoryFootprint fp = evaluate(
        model_zoo::dlrmA(), TaskSpec::preTraining(),
        ParallelPlan::fsdpBaseline(), hw_zoo::dlrmTrainingSystem());
    EXPECT_NEAR(fp.usableCapacity, gib(40) * 0.70, 1.0);
}

TEST(MemoryModel, DlrmShardedTablesDominate)
{
    // 793B fp32 params over 128 devices ~ 24.8 GB each.
    MemoryFootprint fp = evaluate(
        model_zoo::dlrmA(), TaskSpec::preTraining(),
        ParallelPlan::fsdpBaseline(), hw_zoo::dlrmTrainingSystem());
    EXPECT_NEAR(fp.paramBytes / gb(1), 24.8, 0.6);
    EXPECT_TRUE(fp.fits());
}

TEST(MemoryModel, DlrmDdpDenseOverflows40GB)
{
    // Insight 1 / Fig. 11: replicating dense params + grads +
    // optimizer states on top of the table shards exceeds usable HBM.
    ParallelPlan ddp;
    ddp.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    MemoryFootprint fp =
        evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(), ddp,
                 hw_zoo::dlrmTrainingSystem());
    EXPECT_FALSE(fp.fits());
    // The same plan fits for inference (Insight 5): params only.
    MemoryFootprint inf =
        evaluate(model_zoo::dlrmA(), TaskSpec::inference(), ddp,
                 hw_zoo::dlrmTrainingSystem());
    EXPECT_TRUE(inf.fits());
}

TEST(MemoryModel, TpShardingRestoresFit)
{
    ParallelPlan tp_ddp;
    tp_ddp.set(LayerClass::BaseDense,
               HierStrategy{Strategy::TP, Strategy::DDP});
    MemoryFootprint fp =
        evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(), tp_ddp,
                 hw_zoo::dlrmTrainingSystem());
    EXPECT_TRUE(fp.fits());
}

TEST(MemoryModel, Gpt3IntraNodeShardingInsufficient)
{
    // Insight 2: (TP, DDP) on GPT-3 OOMs — 1/8 of 175B params plus
    // optimizer state cannot fit in 80 GB.
    ParallelPlan plan = ParallelPlan::fsdpBaseline();
    plan.set(LayerClass::Transformer,
             HierStrategy{Strategy::TP, Strategy::DDP});
    MemoryFootprint fp =
        evaluate(model_zoo::gpt3(), TaskSpec::preTraining(), plan,
                 hw_zoo::llmTrainingSystem());
    EXPECT_FALSE(fp.fits());

    // Global FSDP fits comfortably.
    MemoryFootprint fsdp = evaluate(
        model_zoo::gpt3(), TaskSpec::preTraining(),
        ParallelPlan::fsdpBaseline(), hw_zoo::llmTrainingSystem());
    EXPECT_TRUE(fsdp.fits());
}

TEST(MemoryModel, MixedPrecisionAddsMasterWeights)
{
    // bf16 params get an fp32 master copy in the optimizer.
    ModelDesc llm = model_zoo::llama65b();
    MemoryFootprint train = evaluate(
        llm, TaskSpec::preTraining(), ParallelPlan::fsdpBaseline(),
        hw_zoo::llmTrainingSystem());
    // Optimizer (8 + 4 master) dwarfs bf16 params (2) at equal
    // sharding.
    EXPECT_GT(train.optimizerBytes, 5.0 * train.paramBytes);
}

TEST(MemoryModel, FsdpTransientIsLargestGatheredLayer)
{
    ModelDesc llm = model_zoo::llama65b();
    MemoryFootprint fp = evaluate(
        llm, TaskSpec::preTraining(), ParallelPlan::fsdpBaseline(),
        hw_zoo::llmTrainingSystem());
    // Largest layer: SwiGLU FFN, 3 x 8192 x 22016 bf16 params.
    double largest = 3.0 * 8192 * 22016 * 2.0;
    EXPECT_NEAR(fp.transientBytes, largest, largest * 0.01);
}

TEST(MemoryModel, InferenceUsesSmallWorkingSet)
{
    MemoryFootprint train = evaluate(
        model_zoo::dlrmA(), TaskSpec::preTraining(),
        ParallelPlan::fsdpBaseline(), hw_zoo::dlrmTrainingSystem());
    MemoryFootprint inf = evaluate(
        model_zoo::dlrmA(), TaskSpec::inference(),
        ParallelPlan::fsdpBaseline(), hw_zoo::dlrmTrainingSystem());
    EXPECT_LT(inf.activationBytes, train.activationBytes);
    EXPECT_DOUBLE_EQ(inf.gradBytes, 0.0);
    EXPECT_DOUBLE_EQ(inf.optimizerBytes, 0.0);
}

TEST(MemoryModel, MoreCapacityUnlocksPlans)
{
    // Fig. 19 mechanism: scaling HBM capacity turns OOM plans valid.
    ParallelPlan ddp;
    ddp.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    ClusterSpec base = hw_zoo::dlrmTrainingSystem();
    EXPECT_FALSE(evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(),
                          ddp, base)
                     .fits());
    EXPECT_TRUE(evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(),
                         ddp, base.withHbmCapacityScale(10.0))
                    .fits());
}

TEST(MemoryModel, MoreCapacityNeverTurnsAFittingPlanOom)
{
    // Physical monotonicity across the zoo and a plan grid: scaling
    // HBM moves usableCapacity alone, so a plan that fits keeps
    // fitting at every larger scale.
    using model_zoo::VitSize;
    struct ZooCase
    {
        ModelDesc desc;
        ClusterSpec cluster;
    };
    std::vector<ZooCase> zoo;
    for (ModelDesc (*make)() :
         {model_zoo::dlrmA, model_zoo::dlrmATransformer,
          model_zoo::dlrmAMoe, model_zoo::dlrmB,
          model_zoo::dlrmBTransformer, model_zoo::dlrmBMoe})
        zoo.push_back({make(), hw_zoo::dlrmTrainingSystem()});
    for (ModelDesc (*make)() :
         {model_zoo::gpt3, model_zoo::llama65b, model_zoo::llama2_70b,
          model_zoo::llmMoe})
        zoo.push_back({make(), hw_zoo::llmTrainingSystem()});
    zoo.push_back({model_zoo::llama2_7b(), hw_zoo::llmTrainingSystem()});
    zoo.push_back({model_zoo::llama2_13b(), hw_zoo::llmTrainingSystem()});
    zoo.push_back(
        {model_zoo::vit(VitSize::L, 2048), hw_zoo::llmTrainingSystem()});
    zoo.push_back(
        {model_zoo::vit(VitSize::B22, 2048), hw_zoo::llmTrainingSystem()});

    // Every non-sparse class under one strategy (sparse tables keep
    // their MP default), for each one- and two-level strategy.
    using S = Strategy;
    std::vector<ParallelPlan> plans = {ParallelPlan::fsdpBaseline()};
    for (HierStrategy hs :
         {HierStrategy{S::DDP}, HierStrategy{S::FSDP}, HierStrategy{S::TP},
          HierStrategy{S::TP, S::DDP}, HierStrategy{S::TP, S::FSDP},
          HierStrategy{S::FSDP, S::DDP}, HierStrategy{S::DDP, S::FSDP},
          HierStrategy{S::MP, S::DDP}}) {
        ParallelPlan plan;
        for (LayerClass cls :
             {LayerClass::DenseEmbedding, LayerClass::BaseDense,
              LayerClass::Transformer, LayerClass::MoE})
            plan.set(cls, hs);
        plans.push_back(plan);
    }

    const TaskSpec tasks[] = {TaskSpec::preTraining(),
                              TaskSpec::inference(), TaskSpec::decode()};
    long fitting = 0, oom = 0;
    for (const ZooCase &c : zoo) {
        const memory_model::Terms terms = memory_model::terms(c.desc);
        for (const TaskSpec &task : tasks) {
            for (const ParallelPlan &plan : plans) {
                SCOPED_TRACE(c.desc.name + " " + task.toString() + " " +
                             plan.toString());
                const MemoryFootprint base =
                    evaluate(terms, task, plan, c.cluster);
                (base.fits() ? fitting : oom) += 1;
                MemoryFootprint prev = base;
                for (double scale : {1.0, 1.5, 2.0, 4.0}) {
                    const MemoryFootprint fp = evaluate(
                        terms, task, plan,
                        c.cluster.withHbmCapacityScale(scale));
                    EXPECT_EQ(fp.paramBytes, base.paramBytes);
                    EXPECT_EQ(fp.gradBytes, base.gradBytes);
                    EXPECT_EQ(fp.optimizerBytes, base.optimizerBytes);
                    EXPECT_EQ(fp.activationBytes, base.activationBytes);
                    EXPECT_EQ(fp.transientBytes, base.transientBytes);
                    EXPECT_EQ(fp.kvCacheBytes, base.kvCacheBytes);
                    EXPECT_GE(fp.usableCapacity, prev.usableCapacity);
                    if (prev.fits()) {
                        EXPECT_TRUE(fp.fits()) << "scale " << scale;
                    }
                    prev = fp;
                }
            }
        }
    }
    // The grid must straddle the capacity line to mean anything.
    EXPECT_GT(fitting, 0);
    EXPECT_GT(oom, 0);
}

TEST(MemoryModel, FootprintTotalSumsComponents)
{
    MemoryFootprint fp = evaluate(
        model_zoo::dlrmA(), TaskSpec::preTraining(),
        ParallelPlan::fsdpBaseline(), hw_zoo::dlrmTrainingSystem());
    EXPECT_NEAR(fp.total(),
                fp.paramBytes + fp.gradBytes + fp.optimizerBytes +
                    fp.activationBytes + fp.transientBytes,
                1.0);
}

TEST(MemoryModel, KvCacheGrowsWithContextAndRidesTheBatchSplit)
{
    ModelDesc desc = model_zoo::llama2_7b(512);
    ClusterSpec cluster = hw_zoo::llmTrainingSystem().withNumNodes(2);
    ParallelPlan plan = ParallelPlan::fsdpBaseline();

    // Batch-phase inference carries no cache: the legacy footprint is
    // untouched by the phase split.
    MemoryFootprint batch =
        evaluate(desc, TaskSpec::inference(), plan, cluster);
    EXPECT_DOUBLE_EQ(batch.kvCacheBytes, 0.0);

    // Prefill at the prompt length: 2 (K,V) x h x 2 B x 32 layers per
    // token, x 512 tokens, x the device's share of the batch.
    MemoryFootprint prefill =
        evaluate(desc, TaskSpec::prefill(), plan, cluster);
    const double batch_share = 256.0 / cluster.numDevices();
    EXPECT_DOUBLE_EQ(prefill.kvCacheBytes,
                     2.0 * 4096 * 2.0 * 32 * 512 * batch_share);
    EXPECT_NEAR(prefill.total() - prefill.kvCacheBytes, batch.total(),
                batch.total() * 0.05);

    // An explicit capacity budget (prompt + generated) scales the
    // cache linearly past the context length.
    TaskSpec capped = TaskSpec::decode(512);
    capped.kvCapacityTokens = 1024;
    MemoryFootprint decode = evaluate(desc, capped, plan, cluster);
    EXPECT_DOUBLE_EQ(decode.kvCacheBytes, 2.0 * prefill.kvCacheBytes);
    // total() includes the cache.
    EXPECT_GE(decode.total(), decode.kvCacheBytes);

    // A 1-byte (fp8) cache halves it.
    TaskSpec fp8 = capped;
    fp8.kvBytesPerElement = 1.0;
    EXPECT_DOUBLE_EQ(evaluate(desc, fp8, plan, cluster).kvCacheBytes,
                     decode.kvCacheBytes / 2.0);
}

TEST(MemoryModel, GroupedQueryAttentionShrinksTheCache)
{
    // LLaMA2-70B uses 8 KV heads against 64 query heads: its per-token
    // cache must be 8x smaller than a full-KV model of the same
    // hidden size would carry.
    ModelDesc desc = model_zoo::llama2_70b();
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    MemoryFootprint fp = evaluate(desc, TaskSpec::prefill(),
                                  ParallelPlan::fsdpBaseline(), cluster);
    const auto &attn = static_cast<const AttentionLayer &>(
        desc.graph.layer(1));
    ASSERT_EQ(attn.kind(), LayerKind::Attention);
    EXPECT_DOUBLE_EQ(
        attn.kvBytesPerToken(2.0),
        2.0 * attn.kvHeads() *
            (8192.0 / static_cast<double>(attn.numHeads())) * 2.0);
    EXPECT_LT(attn.kvHeads(), attn.numHeads());
    EXPECT_GT(fp.kvCacheBytes, 0.0);
}

} // namespace madmax
