/**
 * @file
 * EvalContext tests: the shared hot-path context must be a pure
 * optimization — every report it produces is bit-identical to a
 * fresh PerfModel::evaluate, across context reuse, lazily-built
 * strategy tables and template segments (also under concurrent first
 * touches), mixed-context engine batches, caller-held contexts, and
 * both settings of keepTimeline (names are only materialized when
 * timelines are retained).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "../report_check.hh"
#include "core/eval_context.hh"
#include "engine/eval_engine.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

using testing::expectBitIdentical;

namespace
{

std::vector<ParallelPlan>
samplePlans()
{
    using S = Strategy;
    std::vector<ParallelPlan> plans;

    ParallelPlan baseline = ParallelPlan::fsdpBaseline();
    plans.push_back(baseline);

    ParallelPlan prefetch = baseline;
    prefetch.fsdpPrefetch = true;
    plans.push_back(prefetch);

    ParallelPlan tp_ddp;
    tp_ddp.set(LayerClass::Transformer, HierStrategy{S::TP, S::DDP});
    tp_ddp.set(LayerClass::BaseDense, HierStrategy{S::TP, S::DDP});
    tp_ddp.set(LayerClass::DenseEmbedding, HierStrategy{S::DDP});
    plans.push_back(tp_ddp);

    ParallelPlan mixed;
    mixed.set(LayerClass::Transformer, HierStrategy{S::FSDP, S::DDP});
    mixed.set(LayerClass::DenseEmbedding, HierStrategy{S::TP});
    mixed.fsdpPrefetch = true;
    plans.push_back(mixed);
    return plans;
}

} // namespace

/** A model that retains timelines, so comparisons cover them too. */
PerfModel
timelineModel(const ClusterSpec &cluster)
{
    PerfModelOptions opts;
    opts.keepTimeline = true;
    return PerfModel(cluster, opts);
}

TEST(EvalContext, ReusedContextMatchesFreshEvaluateBitwise)
{
    ModelDesc desc = model_zoo::gpt3();
    PerfModel perf = timelineModel(hw_zoo::llmTrainingSystem());
    TaskSpec task = TaskSpec::preTraining();

    EvalContext context(perf, desc, task);
    for (const ParallelPlan &plan : samplePlans()) {
        PerfReport fresh = perf.evaluate(desc, task, plan);
        PerfReport reused = context.evaluate(plan);
        expectBitIdentical(reused, fresh);
    }
}

TEST(EvalContext, VerdictMatchesPerfModelVerdict)
{
    // The context prices from terms read once at construction; the
    // one-off verdict reads them per call. Every model_zoo family
    // (MoE banks exercise the transient divisor, LLMs under decode
    // the KV cache), and each task kind.
    struct ZooCase
    {
        const char *name;
        ModelDesc (*desc)();
        ClusterSpec (*cluster)();
    };
    using model_zoo::VitSize;
    const ZooCase zoo[] = {
        {"dlrmA", model_zoo::dlrmA, hw_zoo::dlrmTrainingSystem},
        {"dlrmATransformer", model_zoo::dlrmATransformer,
         hw_zoo::dlrmTrainingSystem},
        {"dlrmAMoe", model_zoo::dlrmAMoe, hw_zoo::dlrmTrainingSystem},
        {"dlrmB", model_zoo::dlrmB, hw_zoo::dlrmTrainingSystem},
        {"dlrmBTransformer", model_zoo::dlrmBTransformer,
         hw_zoo::dlrmTrainingSystem},
        {"dlrmBMoe", model_zoo::dlrmBMoe, hw_zoo::dlrmTrainingSystem},
        {"gpt3", model_zoo::gpt3, hw_zoo::llmTrainingSystem},
        {"llama65b", model_zoo::llama65b, hw_zoo::llmTrainingSystem},
        {"llama2_70b", model_zoo::llama2_70b, hw_zoo::llmTrainingSystem},
        {"llama2_7b", [] { return model_zoo::llama2_7b(); },
         hw_zoo::llmTrainingSystem},
        {"llama2_13b", [] { return model_zoo::llama2_13b(); },
         hw_zoo::llmTrainingSystem},
        {"llmMoe", model_zoo::llmMoe, hw_zoo::llmTrainingSystem},
        {"vitL", [] { return model_zoo::vit(VitSize::L, 2048); },
         hw_zoo::llmTrainingSystem},
        {"vitB22", [] { return model_zoo::vit(VitSize::B22, 2048); },
         hw_zoo::llmTrainingSystem},
    };
    const TaskSpec tasks[] = {TaskSpec::preTraining(),
                              TaskSpec::inference(),
                              TaskSpec::decode(1024)};

    std::vector<ParallelPlan> plans = samplePlans();
    ParallelPlan experts = ParallelPlan::fsdpBaseline();
    experts.set(LayerClass::MoE, HierStrategy{Strategy::TP, Strategy::DDP});
    plans.push_back(experts);

    for (const ZooCase &c : zoo) {
        ModelDesc desc = c.desc();
        PerfModel perf(c.cluster());
        for (const TaskSpec &task : tasks) {
            SCOPED_TRACE(std::string(c.name) + " " + task.toString());
            EvalContext context(perf, desc, task);
            for (const ParallelPlan &plan : plans) {
                expectBitIdentical(context.verdict(plan),
                                   perf.verdict(desc, task, plan));
            }
        }
    }
}

TEST(EvalContext, InferenceContextBuildsForwardOnly)
{
    ModelDesc desc = model_zoo::gpt3();
    PerfModel perf = timelineModel(hw_zoo::llmTrainingSystem());
    TaskSpec task = TaskSpec::inference();

    EvalContext context(perf, desc, task);
    for (int i = 0; i < desc.graph.numLayers(); ++i)
        EXPECT_EQ(context.computeTimes(i).bwd, 0.0);

    PerfReport report = context.evaluate(ParallelPlan::fsdpBaseline());
    expectBitIdentical(
        report,
        perf.evaluate(desc, task, ParallelPlan::fsdpBaseline()));
    ASSERT_FALSE(report.timeline.events.empty());
    for (const ScheduledEvent &se : report.timeline.events) {
        if (se.event.layerIdx >= 0) {
            EXPECT_FALSE(se.event.backward);
        }
    }
}

TEST(EvalContext, PlannedOpsAreStableAndSharedAcrossCalls)
{
    ModelDesc desc = model_zoo::gpt3();
    PerfModel perf(hw_zoo::llmTrainingSystem());
    TaskSpec task = TaskSpec::preTraining();
    EvalContext context(perf, desc, task);

    // Tables are per (layer class, strategy): GPT-3's layer 0 is its
    // word embedding, layers 1 and 2 are transformer blocks.
    ASSERT_EQ(desc.graph.layer(0).layerClass(), LayerClass::DenseEmbedding);
    ASSERT_EQ(desc.graph.layer(1).layerClass(), LayerClass::Transformer);
    ASSERT_EQ(desc.graph.layer(2).layerClass(), LayerClass::Transformer);

    HierStrategy fsdp{Strategy::FSDP};
    const std::vector<ResolvedCommOp> &first =
        context.plannedOps(1, fsdp);
    const std::vector<ResolvedCommOp> &second =
        context.plannedOps(1, fsdp);
    EXPECT_EQ(&first, &second)
        << "per-(class, strategy) tables must be built once and shared";

    // FSDP on a trainable layer gathers forward + backward and
    // reduce-scatters gradients.
    ASSERT_FALSE(first.empty());
    for (const ResolvedCommOp &op : first)
        EXPECT_GT(op.duration, 0.0);

    size_t memoized = context.collectiveTableSize();
    EXPECT_GT(memoized, 0u);
    context.plannedOps(2, fsdp);
    EXPECT_EQ(context.collectiveTableSize(), memoized)
        << "same-class lookups must share one table and not grow the "
           "memo table";

    // The embedding's table is another class's: its first lookup
    // builds it and prices the embedding's collectives.
    EXPECT_FALSE(context.plannedOps(0, fsdp).empty());
    EXPECT_GT(context.collectiveTableSize(), memoized)
        << "another class's first lookup must build its own table";
}

TEST(EvalContext, KeepTimelineControlsNameMaterialization)
{
    ModelDesc desc = model_zoo::dlrmA();
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    TaskSpec task = TaskSpec::preTraining();

    PerfModel keep = timelineModel(cluster);
    EvalContext keepCtx(keep, desc, task);
    PerfReport with = keepCtx.evaluate(ParallelPlan::fsdpBaseline());
    ASSERT_FALSE(with.timeline.events.empty());
    // Materialized names: layer labels on compute events, planner
    // tags on collectives, and the closing barrier.
    for (const ScheduledEvent &se : with.timeline.events)
        EXPECT_FALSE(se.event.name.empty());
    EXPECT_EQ(with.timeline.events.back().event.name, "iter_end");
    bool saw_backward_label = false;
    for (const ScheduledEvent &se : with.timeline.events) {
        if (se.event.backward && se.event.stream == StreamKind::Compute &&
            se.event.layerIdx >= 0) {
            saw_backward_label = true;
            EXPECT_EQ(se.event.name.back(), '\'');
        }
    }
    EXPECT_TRUE(saw_backward_label);

    PerfModel drop(cluster); // Timelines are off by default.
    EvalContext dropCtx(drop, desc, task);
    PerfReport without = dropCtx.evaluate(ParallelPlan::fsdpBaseline());
    EXPECT_TRUE(without.timeline.events.empty());
    // Timing fields are unaffected by timeline retention.
    EXPECT_EQ(without.iterationTime, with.iterationTime);
    EXPECT_EQ(without.exposedCommTime, with.exposedCommTime);
}

TEST(EvalContext, MixedContextEngineBatchMatchesDirectEvaluation)
{
    ModelDesc gpt = model_zoo::gpt3();
    ModelDesc dlrm = model_zoo::dlrmA();
    PerfModel llmPerf(hw_zoo::llmTrainingSystem());
    PerfModel recPerf(hw_zoo::dlrmTrainingSystem());
    TaskSpec pretrain = TaskSpec::preTraining();
    TaskSpec inference = TaskSpec::inference();

    // Interleave three (model, desc, task) groups in one batch.
    std::vector<PlanRequest> requests;
    for (const ParallelPlan &plan : samplePlans()) {
        requests.push_back(PlanRequest{&llmPerf, &gpt, &pretrain, plan});
        requests.push_back(PlanRequest{&recPerf, &dlrm, &pretrain, plan});
        requests.push_back(PlanRequest{&llmPerf, &gpt, &inference, plan});
    }

    EvalEngineOptions eo;
    eo.jobs = 4; // Concurrent lazy strategy-table builds.
    EvalEngine engine(eo);
    EvalStats stats;
    std::vector<PerfReport> reports = engine.evaluateAll(requests, &stats);

    ASSERT_EQ(reports.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const PlanRequest &req = requests[i];
        PerfReport direct =
            req.model->evaluate(*req.desc, *req.task, req.plan);
        expectBitIdentical(reports[i], direct);
    }
}

TEST(EvalContext, CallerContextServesEngineBatches)
{
    ModelDesc desc = model_zoo::dlrmA();
    PerfModel perf(hw_zoo::dlrmTrainingSystem());
    TaskSpec task = TaskSpec::preTraining();
    EvalContext context(perf, desc, task);
    ASSERT_EQ(context.collectiveTableSize(), 0u);

    std::vector<PlanRequest> requests;
    for (const ParallelPlan &plan : samplePlans()) {
        PlanRequest req{&perf, &desc, &task, plan};
        req.context = &context;
        requests.push_back(req);
    }
    EvalEngineOptions eo;
    eo.jobs = 4;
    EvalEngine engine(eo);
    std::vector<PerfReport> reports = engine.evaluateAll(requests);
    // The engine priced through the caller's context, not its own.
    EXPECT_GT(context.collectiveTableSize(), 0u);
    for (size_t i = 0; i < requests.size(); ++i) {
        expectBitIdentical(reports[i],
                           perf.evaluate(desc, task, requests[i].plan));
    }

    // A context built for another triple is a caller bug.
    TaskSpec inference = TaskSpec::inference();
    PlanRequest wrong{&perf, &desc, &inference,
                      ParallelPlan::fsdpBaseline()};
    wrong.context = &context;
    EXPECT_THROW(engine.evaluateAll({wrong}), ConfigError);
}

TEST(EvalContext, ConcurrentFirstTouchMatchesSerialFreshContexts)
{
    // Four threads first-touch distinct plans on one shared context at
    // once, racing the lazy per-(class, strategy) table and template
    // segment builds (two threads share each plan's strategies for
    // some classes). Every report must equal a serial evaluation on a
    // fresh context of its own.
    using S = Strategy;
    ModelDesc desc = model_zoo::llmMoe();
    PerfModel perf = timelineModel(hw_zoo::llmTrainingSystem());
    TaskSpec task = TaskSpec::preTraining();

    constexpr int kThreads = 4;
    const HierStrategy trans[kThreads] = {
        HierStrategy{S::FSDP}, HierStrategy{S::TP, S::FSDP},
        HierStrategy{S::TP}, HierStrategy{S::FSDP}};
    const HierStrategy moe[kThreads] = {
        HierStrategy{S::MP}, HierStrategy{S::MP}, HierStrategy{S::FSDP},
        HierStrategy{S::FSDP}};
    std::vector<ParallelPlan> plans(kThreads, ParallelPlan::fsdpBaseline());
    for (int t = 0; t < kThreads; ++t) {
        plans[t].set(LayerClass::Transformer, trans[t]);
        plans[t].set(LayerClass::MoE, moe[t]);
        plans[t].fsdpPrefetch = t % 2 == 1;
    }

    EvalContext shared(perf, desc, task);
    std::vector<PerfReport> got(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
                // Start together so the first touches overlap.
            }
            got[t] = shared.evaluate(plans[t]);
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE("plan " + plans[t].toString());
        EvalContext fresh(perf, desc, task);
        const PerfReport want = fresh.evaluate(plans[t]);
        EXPECT_FALSE(want.timeline.events.empty());
        expectBitIdentical(got[t], want);
    }
}

TEST(EvalContext, TemplatesFollowShapeAndRelativePlace)
{
    // GPT-3's 192 transformer layers have two shapes (attention, FFN)
    // and four templates: the first attention block (emission ordinal
    // 1) and the last FFN (no consumer) stand apart, every other block
    // shares its shape's steady-state template.
    ModelDesc desc = model_zoo::gpt3();
    PerfModel perf(hw_zoo::llmTrainingSystem());
    EvalContext context(perf, desc, TaskSpec::preTraining());

    const int n = desc.graph.numLayers();
    uint32_t shapes = 0, templates = 0;
    for (int i = 1; i < n; ++i) {
        const EvalContext::LayerCosts &lc = context.layerCosts(i);
        ASSERT_EQ(lc.cls, LayerClass::Transformer);
        shapes = std::max(shapes, lc.shapeId + 1);
        templates = std::max(templates, lc.templateId + 1);
    }
    EXPECT_EQ(shapes, 2u);
    EXPECT_EQ(templates, 4u);

    // Blocks two apart share a template (and so their costs), except
    // where the key differs: Attn_0 vs Attn_1, FFN_94 vs FFN_95.
    for (int i = 3; i < n; ++i) {
        const EvalContext::LayerCosts &lc = context.layerCosts(i);
        const EvalContext::LayerCosts &twin = context.layerCosts(i - 2);
        EXPECT_EQ(lc.shapeId, twin.shapeId) << "layer " << i;
        EXPECT_EQ(context.computeTimes(i).fwd,
                  context.computeTimes(i - 2).fwd)
            << "layer " << i;
        EXPECT_EQ(context.computeTimes(i).bwd,
                  context.computeTimes(i - 2).bwd)
            << "layer " << i;
        EXPECT_EQ(lc.templateId == twin.templateId, i != 3 && i != n - 1)
            << "layer " << i;
    }
}

TEST(EvalContext, LayerCostsListConsumers)
{
    // Every layer's consumers are the later layers listing it as a
    // dependency, each once, ascending — across the zoo's shapes.
    for (const ModelDesc &desc :
         {model_zoo::dlrmA(), model_zoo::dlrmAMoe(), model_zoo::gpt3()}) {
        PerfModel perf(desc.isRecommendation
                           ? hw_zoo::dlrmTrainingSystem()
                           : hw_zoo::llmTrainingSystem());
        TaskSpec task = TaskSpec::preTraining();
        EvalContext context(perf, desc, task);
        const int n = desc.graph.numLayers();
        for (int i = 0; i < n; ++i) {
            std::vector<int> want;
            for (int j = i + 1; j < n; ++j) {
                for (int d : desc.graph.deps(j)) {
                    if (d == i) {
                        want.push_back(j);
                        break;
                    }
                }
            }
            const EvalContext::LayerCosts &lc = context.layerCosts(i);
            EXPECT_EQ(std::vector<int>(lc.consumers,
                                       lc.consumers + lc.numConsumers),
                      want)
                << desc.name << " layer " << i;
        }
    }
}

} // namespace madmax
