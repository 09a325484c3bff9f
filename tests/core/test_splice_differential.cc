/**
 * @file
 * Differential pin for the one evaluation path. EvalContext::evaluate
 * splices every plan's event graph from cached per-(layer class,
 * strategy) segment arenas into per-thread buffers and schedules each
 * event as it is written; these suites compare its reports — and,
 * with keepTimeline on, its timelines, event for event — bitwise
 * against the plain layer-by-layer reference builder and scheduler in
 * tests/reference.
 *
 *  - SpliceDifferential walks the zoo (DLRM-A, DLRM-A-MoE, GPT-3,
 *    LLM-MoE, ViT) plus a hand-built mixed-shape transformer stack x
 *    {pre-training, inference, fine-tuning} x {flat, dc-pod-fleet
 *    topology} with timelines on, each step under the default
 *    options, with one comm channel, and with memory ignored;
 *  - SpliceClassMapping evaluates every plan of the models whose
 *    class runs alternate or are singletons (LLM-MoE, DLRM-A-MoE,
 *    ViT) x {pre-training, inference}, and SpliceMixedShapes every
 *    plan of the mixed-shape stack on both cluster kinds, on one
 *    shared context and on a fresh context per plan, each with
 *    timelines on and off, so every layer's template mapping —
 *    forward and reversed backward — is pinned in both of the
 *    splice's instantiations;
 *  - DeltaEval runs long timeline-free walks (the default
 *    configuration), plus, with timelines on and off, the cases where
 *    one thread's buffers move between contexts (a larger splice's
 *    leftovers included) or an OOM verdict interrupts a walk;
 *  - GuidedPooled checks that guided searches, whose batches ride the
 *    engine's thread pool, visit and report exactly what a serial
 *    engine does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "../report_check.hh"
#include "core/eval_context.hh"
#include "dse/pareto_engine.hh"
#include "dse/search_strategy.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "reference/reference_builder.hh"

namespace madmax
{

namespace
{

/**
 * Exact equality on every PerfReport field, timeline included: each
 * event's id, name, dependencies, and scheduled interval (plus its
 * remaining attributes). EXPECT_EQ on double compares representations
 * exactly — splicing is a pure optimization of the reference build.
 */
void
expectBitIdentical(const PerfReport &a, const PerfReport &b,
                   const std::string &what)
{
    EXPECT_EQ(a.modelName, b.modelName) << what;
    EXPECT_EQ(a.clusterName, b.clusterName) << what;
    EXPECT_EQ(a.taskName, b.taskName) << what;
    EXPECT_EQ(a.plan.toString(), b.plan.toString()) << what;
    EXPECT_EQ(a.plan.fsdpPrefetch, b.plan.fsdpPrefetch) << what;
    EXPECT_EQ(a.valid, b.valid) << what;
    EXPECT_EQ(a.memory.paramBytes, b.memory.paramBytes) << what;
    EXPECT_EQ(a.memory.gradBytes, b.memory.gradBytes) << what;
    EXPECT_EQ(a.memory.optimizerBytes, b.memory.optimizerBytes) << what;
    EXPECT_EQ(a.memory.activationBytes, b.memory.activationBytes)
        << what;
    EXPECT_EQ(a.memory.transientBytes, b.memory.transientBytes) << what;
    EXPECT_EQ(a.memory.usableCapacity, b.memory.usableCapacity) << what;
    EXPECT_EQ(a.iterationTime, b.iterationTime) << what;
    EXPECT_EQ(a.serializedTime, b.serializedTime) << what;
    EXPECT_EQ(a.computeTime, b.computeTime) << what;
    EXPECT_EQ(a.commTime, b.commTime) << what;
    EXPECT_EQ(a.exposedCommTime, b.exposedCommTime) << what;
    EXPECT_EQ(a.globalBatchSize, b.globalBatchSize) << what;
    EXPECT_EQ(a.contextLength, b.contextLength) << what;
    EXPECT_EQ(a.serializedBreakdown, b.serializedBreakdown) << what;
    EXPECT_EQ(a.exposedBreakdown, b.exposedBreakdown) << what;

    const Timeline &ta = a.timeline;
    const Timeline &tb = b.timeline;
    ASSERT_EQ(ta.events.size(), tb.events.size()) << what;
    for (size_t i = 0; i < ta.events.size(); ++i) {
        const ScheduledEvent &x = ta.events[i];
        const ScheduledEvent &y = tb.events[i];
        const std::string at = what + " event " + std::to_string(i);
        ASSERT_EQ(x.event.id, y.event.id) << at;
        ASSERT_EQ(x.event.name, y.event.name) << at;
        ASSERT_EQ(x.event.deps, y.event.deps) << at;
        ASSERT_EQ(x.start, y.start) << at;
        ASSERT_EQ(x.finish, y.finish) << at;
        ASSERT_EQ(x.event.stream, y.event.stream) << at;
        ASSERT_EQ(x.event.category, y.event.category) << at;
        ASSERT_EQ(x.event.duration, y.event.duration) << at;
        ASSERT_EQ(x.event.blocking, y.event.blocking) << at;
        ASSERT_EQ(x.event.layerIdx, y.event.layerIdx) << at;
        ASSERT_EQ(x.event.backward, y.event.backward) << at;
        ASSERT_EQ(x.event.algo, y.event.algo) << at;
    }
    EXPECT_EQ(ta.makespan, tb.makespan) << what;
}

/** The reference report, with its timeline dropped unless @p model
 *  retains timelines (the oracle always materializes one). */
PerfReport
referenceFor(const PerfModel &model, const ModelDesc &desc,
             const TaskSpec &task, const ParallelPlan &plan)
{
    PerfReport want = reference::evaluate(model, desc, task, plan);
    if (!model.options().keepTimeline)
        want.timeline = Timeline{};
    return want;
}

/** The layer classes @p desc contains, in enum order. */
std::vector<LayerClass>
presentClasses(const ModelDesc &desc)
{
    std::vector<LayerClass> out;
    for (LayerClass cls : {LayerClass::SparseEmbedding,
                           LayerClass::DenseEmbedding,
                           LayerClass::BaseDense, LayerClass::Transformer,
                           LayerClass::MoE}) {
        if (desc.graph.hasClass(cls))
            out.push_back(cls);
    }
    return out;
}

/**
 * Seeded randomized differential walk: start from the FSDP baseline
 * and mutate one knob per step — one present class's strategy, or the
 * prefetch flag — comparing the spliced evaluation with the reference
 * at every step, under three option sets: the walk's own, every
 * collective on one comm channel, and memory ignored (so OOM plans
 * are scheduled too). Under the first two, infeasible (OOM)
 * candidates must short-circuit identically. Every production report
 * must also satisfy the report invariants.
 */
void
runDifferentialWalk(const ModelDesc &desc, const ClusterSpec &cluster,
                    const TaskSpec &task, uint64_t seed, int steps,
                    bool keepTimeline)
{
    PerfModelOptions own;
    own.keepTimeline = keepTimeline;
    PerfModelOptions single_channel = own;
    single_channel.backgroundCommChannel = false;
    PerfModelOptions ignore_memory = own;
    ignore_memory.ignoreMemory = true;
    const std::vector<std::pair<std::string, PerfModelOptions>> variants =
        {{"", own},
         {" single-channel", single_channel},
         {" ignoreMemory", ignore_memory}};
    std::vector<std::unique_ptr<PerfModel>> perfs;
    std::vector<std::unique_ptr<EvalContext>> contexts;
    for (const auto &variant : variants) {
        perfs.push_back(std::make_unique<PerfModel>(cluster, variant.second));
        contexts.push_back(
            std::make_unique<EvalContext>(*perfs.back(), desc, task));
    }

    const std::vector<LayerClass> classes = presentClasses(desc);
    ASSERT_FALSE(classes.empty());

    std::mt19937_64 rng(seed);
    ParallelPlan plan = ParallelPlan::fsdpBaseline();
    int scheduled = 0; // Own-option steps past the memory verdict.
    for (int step = 0; step < steps; ++step) {
        if (rng() % 8 == 0) {
            plan.fsdpPrefetch = !plan.fsdpPrefetch;
        } else {
            const LayerClass cls = classes[rng() % classes.size()];
            const std::vector<HierStrategy> cands =
                StrategyExplorer::candidates(cls);
            ASSERT_FALSE(cands.empty());
            plan.set(cls, cands[rng() % cands.size()]);
        }

        for (size_t v = 0; v < variants.size(); ++v) {
            const PerfReport got = contexts[v]->evaluate(plan);
            if (v == 0)
                scheduled += got.valid ? 1 : 0;
            const std::string what = "step " + std::to_string(step) +
                                     " plan " + plan.toString() +
                                     variants[v].first;
            testing::expectReportInvariants(got, perfs[v]->options());
            expectBitIdentical(got,
                               referenceFor(*perfs[v], desc, task, plan),
                               what);
        }
        if (::testing::Test::HasFailure())
            break; // One mismatch is enough signal.
    }
    // A walk of OOM verdicts alone would compare no schedules.
    EXPECT_GE(scheduled, steps / 10);
}

// --- Zoo x task x cluster walks, timelines on -------------------------

struct ZooCase
{
    std::string name;
    ModelDesc (*model)();
    ClusterSpec (*cluster)();
};

ModelDesc
vitG()
{
    return model_zoo::vit(model_zoo::VitSize::G, 4096);
}

/**
 * A transformer stack whose layers do not all share a shape, so the
 * per-template segments must key on more than the layer kind: two FFN
 * widths, one SwiGLU block (num_matrices = 3) among GELU blocks, a
 * GQA attention (different kv_heads), and one attention block with
 * two producers (a skip edge from FFN_1), which also gives FFN_1 two
 * consumers. Each of those keys has a same-shape twin that differs
 * only in it: Attn_3 vs Attn_1 (producer offsets), FFN_1 vs FFN_3
 * (consumer offsets), Attn_0 vs Attn_1 (emission ordinal 1 vs 3, which
 * decides whether a prefetched gather has an anchor).
 */
ModelDesc
mixedShapeStack()
{
    const long h = 1024, ctx = 512;
    const LayerClass tr = LayerClass::Transformer;
    ModelDesc m;
    m.name = "MixedShapeStack";
    m.globalBatchSize = 512;
    m.contextLength = ctx;
    m.isRecommendation = false;
    m.computeDtype = DataType::BF16;
    m.paramDtype = DataType::BF16;

    ModelGraph &g = m.graph;
    int prev = g.addLayer(std::make_unique<TokenEmbeddingLayer>(
        "Tok_EMB", 32000, h, static_cast<double>(ctx), 1));
    int skip = -1;
    for (int i = 0; i < 6; ++i) {
        const std::string n = std::to_string(i);
        std::vector<int> deps{prev};
        if (i == 3)
            deps.push_back(skip); // Two producers.
        const long kv = i == 2 ? 4 : 0;
        int attn = g.addLayer(std::make_unique<AttentionLayer>(
                                  "Attn_" + n, tr, h, 16, ctx, kv),
                              deps);
        const long width = i % 2 == 0 ? 4096 : 2816;
        const int mats = i == 4 ? 3 : 2;
        prev = g.addLayer(std::make_unique<FeedForwardLayer>(
                              "FFN_" + n, tr, h, width, ctx, mats),
                          {attn});
        if (i == 1)
            skip = prev;
    }
    g.addLayer(std::make_unique<MlpLayer>("LM_Head", LayerClass::BaseDense,
                                          std::vector<long>{h, 32000},
                                          static_cast<double>(ctx)),
               {prev});
    return m;
}

const std::vector<ZooCase> &
zooCases()
{
    static const std::vector<ZooCase> cases = {
        {"DlrmA", model_zoo::dlrmA, hw_zoo::dlrmTrainingSystem},
        {"DlrmAMoe", model_zoo::dlrmAMoe, hw_zoo::dlrmTrainingSystem},
        {"Gpt3", model_zoo::gpt3, hw_zoo::llmTrainingSystem},
        {"LlmMoe", model_zoo::llmMoe, hw_zoo::llmTrainingSystem},
        {"VitG", vitG, hw_zoo::llmTrainingSystem},
        {"MixedStack", mixedShapeStack, hw_zoo::llmTrainingSystem},
    };
    return cases;
}

struct TaskCase
{
    std::string name;
    TaskSpec task;
};

const std::vector<TaskCase> &
taskCases()
{
    static const std::vector<TaskCase> cases = {
        {"PreTraining", TaskSpec::preTraining()},
        {"Inference", TaskSpec::inference()},
        {"FineTuning", TaskSpec::fineTuning(FineTuneScope::DenseOnly)},
    };
    return cases;
}

/** (zoo case, task case, with dc-pod-fleet topology). */
using WalkParam = std::tuple<size_t, size_t, bool>;

class SpliceDifferential : public ::testing::TestWithParam<WalkParam>
{
};

/** @p z's cluster, with the dc-pod-fleet tier stack when
 *  @p podFleet. */
ClusterSpec
clusterFor(const ZooCase &z, bool podFleet)
{
    ClusterSpec cluster = z.cluster();
    if (podFleet) {
        cluster = hw_zoo::withTopology(
            cluster, hw_zoo::dcPodFleetTopology(cluster));
    }
    return cluster;
}

TEST_P(SpliceDifferential, WalkMatchesReference)
{
    const auto [zoo, task, podFleet] = GetParam();
    const ZooCase &z = zooCases()[zoo];
    const ClusterSpec cluster = clusterFor(z, podFleet);
    const uint64_t seed = 0x5b11ceull + zoo * 16 + task * 2 +
                          (podFleet ? 1 : 0);
    runDifferentialWalk(z.model(), cluster, taskCases()[task].task, seed,
                        40, /*keepTimeline=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SpliceDifferential,
    ::testing::Combine(::testing::Range<size_t>(0, 6),
                       ::testing::Range<size_t>(0, 3),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<WalkParam> &info) {
        return zooCases()[std::get<0>(info.param)].name + "_" +
               taskCases()[std::get<1>(info.param)].name +
               (std::get<2>(info.param) ? "_PodFleet" : "_Flat");
    });

// --- Class mapping: every plan, shared and fresh contexts -------------

/** Every strategy assignment over @p desc's present classes (the
 *  explorer's plan product), each with prefetch on and off. */
std::vector<ParallelPlan>
everyPlan(const PerfModel &perf, const ModelDesc &desc,
          const TaskSpec &task)
{
    std::vector<ParallelPlan> plans =
        enumeratePlans(makeSearchSpace({&perf}, desc, task));
    const size_t assignments = plans.size();
    for (size_t i = 0; i < assignments; ++i) {
        plans.push_back(plans[i]);
        plans.back().fsdpPrefetch = !plans[i].fsdpPrefetch;
    }
    return plans;
}

/**
 * Every plan of @p desc, evaluated on one shared context (tables built
 * up across plans) and on a fresh context (only that plan's tables),
 * each with timelines retained and dropped (the splice's two
 * instantiations): every report must be bitwise equal to the
 * reference, whose timeline is dropped to compare with the second.
 */
void
checkEveryPlan(const ModelDesc &desc, const ClusterSpec &cluster,
               const TaskSpec &task)
{
    PerfModelOptions opts;
    opts.keepTimeline = true;
    PerfModel perf(cluster, opts);
    PerfModelOptions notl_opts;
    notl_opts.keepTimeline = false;
    PerfModel perf_notl(cluster, notl_opts);
    EvalContext shared(perf, desc, task);
    EvalContext shared_notl(perf_notl, desc, task);

    int scheduled = 0; // Plans that got past the memory verdict.
    for (const ParallelPlan &plan : everyPlan(perf, desc, task)) {
        const PerfReport want = referenceFor(perf, desc, task, plan);
        PerfReport want_notl = want;
        want_notl.timeline = Timeline{};
        const std::string what = plan.toString();
        const PerfReport got = shared.evaluate(plan);
        scheduled += got.valid ? 1 : 0;
        testing::expectReportInvariants(got, opts);
        expectBitIdentical(got, want, "shared context " + what);
        EvalContext fresh(perf, desc, task);
        const PerfReport gotFresh = fresh.evaluate(plan);
        testing::expectReportInvariants(gotFresh, opts);
        expectBitIdentical(gotFresh, want, "fresh context " + what);

        const PerfReport gotNotl = shared_notl.evaluate(plan);
        testing::expectReportInvariants(gotNotl, notl_opts);
        expectBitIdentical(gotNotl, want_notl,
                           "shared timeline-free context " + what);
        EvalContext fresh_notl(perf_notl, desc, task);
        const PerfReport gotFreshNotl = fresh_notl.evaluate(plan);
        expectBitIdentical(gotFreshNotl, want_notl,
                           "fresh timeline-free context " + what);
        if (::testing::Test::HasFailure())
            break; // One mismatch is enough signal.
    }
    EXPECT_GT(scheduled, 0);
}

/** (zoo case, task case). */
using ClassMapParam = std::tuple<size_t, size_t>;

class SpliceClassMapping : public ::testing::TestWithParam<ClassMapParam>
{
};

/**
 * The models whose class runs alternate (LLM-MoE: 103 runs per pass)
 * or are singletons (DLRM-A-MoE, ViT): every plan on a shared and a
 * fresh context.
 */
TEST_P(SpliceClassMapping, EveryPlanMatchesReference)
{
    const auto [zoo, taskIdx] = GetParam();
    const ZooCase &z = zooCases()[zoo];
    checkEveryPlan(z.model(), z.cluster(), taskCases()[taskIdx].task);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SpliceClassMapping,
    ::testing::Combine(::testing::Values<size_t>(1, 3, 4),
                       ::testing::Values<size_t>(0, 1)),
    [](const ::testing::TestParamInfo<ClassMapParam> &info) {
        return zooCases()[std::get<0>(info.param)].name + "_" +
               taskCases()[std::get<1>(info.param)].name;
    });

/** (task case, with dc-pod-fleet topology). */
using MixedParam = std::tuple<size_t, bool>;

class SpliceMixedShapes : public ::testing::TestWithParam<MixedParam>
{
};

/**
 * The mixed-shape stack, whose layers spread over many templates:
 * every plan on a shared and a fresh context, on both cluster kinds.
 */
TEST_P(SpliceMixedShapes, EveryPlanMatchesReference)
{
    const auto [taskIdx, podFleet] = GetParam();
    const ZooCase &z = zooCases()[5];
    checkEveryPlan(z.model(), clusterFor(z, podFleet),
                   taskCases()[taskIdx].task);
}

INSTANTIATE_TEST_SUITE_P(
    MixedStack, SpliceMixedShapes,
    ::testing::Combine(::testing::Values<size_t>(0, 1), ::testing::Bool()),
    [](const ::testing::TestParamInfo<MixedParam> &info) {
        return taskCases()[std::get<0>(info.param)].name +
               (std::get<1>(info.param) ? "_PodFleet" : "_Flat");
    });

} // namespace

// --- Long timeline-free walks (the default configuration) -------------

TEST(DeltaEval, WalkBitwiseIdenticalDlrmAPretrain)
{
    runDifferentialWalk(model_zoo::dlrmA(), hw_zoo::dlrmTrainingSystem(),
                        TaskSpec::preTraining(), 0xd11a, 500, false);
}

TEST(DeltaEval, WalkBitwiseIdenticalDlrmAInference)
{
    runDifferentialWalk(model_zoo::dlrmA(), hw_zoo::dlrmTrainingSystem(),
                        TaskSpec::inference(), 0xd11b, 500, false);
}

TEST(DeltaEval, WalkBitwiseIdenticalGpt3Pretrain)
{
    runDifferentialWalk(model_zoo::gpt3(), hw_zoo::llmTrainingSystem(),
                        TaskSpec::preTraining(), 0x69e7, 500, false);
}

TEST(DeltaEval, WalkBitwiseIdenticalGpt3Inference)
{
    runDifferentialWalk(model_zoo::gpt3(), hw_zoo::llmTrainingSystem(),
                        TaskSpec::inference(), 0x69e8, 500, false);
}

TEST(DeltaEval, WalkBitwiseIdenticalMoePretrain)
{
    runDifferentialWalk(model_zoo::llmMoe(), hw_zoo::llmTrainingSystem(),
                        TaskSpec::preTraining(), 0x30e1, 500, false);
}

TEST(DeltaEval, WalkBitwiseIdenticalMoeInference)
{
    runDifferentialWalk(model_zoo::llmMoe(), hw_zoo::llmTrainingSystem(),
                        TaskSpec::inference(), 0x30e2, 500, false);
}

namespace
{

/** The splice's two instantiations: timelines retained, dropped. */
constexpr bool kTimelineSettings[] = {true, false};

std::string
timelineLabel(bool keepTimeline)
{
    return keepTimeline ? " (timeline)" : " (timeline-free)";
}

} // namespace

/**
 * A task switch (same model, other task — a different event-graph
 * shape) on one thread: the per-thread splice buffers sized for the
 * training graph are reused for the forward-only one and back, and
 * every evaluation stays bitwise equal to the reference.
 */
TEST(DeltaEval, TaskSwitchRebindsStateAndStaysBitwise)
{
    for (bool keepTimeline : kTimelineSettings) {
        ModelDesc desc = model_zoo::gpt3();
        PerfModelOptions opts;
        opts.keepTimeline = keepTimeline;
        PerfModel perf(hw_zoo::llmTrainingSystem(), opts);
        TaskSpec pretrain = TaskSpec::preTraining();
        TaskSpec inference = TaskSpec::inference();
        EvalContext trainCtx(perf, desc, pretrain);
        EvalContext inferCtx(perf, desc, inference);

        const ParallelPlan plan = ParallelPlan::fsdpBaseline();
        const PerfReport wantTrain =
            referenceFor(perf, desc, pretrain, plan);
        const PerfReport wantInfer =
            referenceFor(perf, desc, inference, plan);
        const std::string label = timelineLabel(keepTimeline);
        expectBitIdentical(trainCtx.evaluate(plan), wantTrain,
                           "train" + label);
        expectBitIdentical(inferCtx.evaluate(plan), wantInfer,
                           "infer" + label);
        expectBitIdentical(trainCtx.evaluate(plan), wantTrain,
                           "train again" + label);
    }
}

/**
 * A present-class-set change (another ModelDesc) on one thread: the
 * buffers carry the previous model's graph, and the first evaluation
 * under the new model is still bitwise equal to the reference.
 */
TEST(DeltaEval, ClassSetChangeRebindsStateAndStaysBitwise)
{
    for (bool keepTimeline : kTimelineSettings) {
        PerfModelOptions opts;
        opts.keepTimeline = keepTimeline;
        PerfModel perf(hw_zoo::dlrmTrainingSystem(), opts);
        TaskSpec task = TaskSpec::preTraining();

        // DLRM-A has sparse embeddings + dense classes; the transformer
        // variant adds the Transformer class — a different class set.
        ModelDesc mlp = model_zoo::dlrmA();
        ModelDesc trans = model_zoo::dlrmATransformer();
        EvalContext mlpCtx(perf, mlp, task);
        EvalContext transCtx(perf, trans, task);

        const ParallelPlan plan = ParallelPlan::fsdpBaseline();
        const std::string label = timelineLabel(keepTimeline);
        expectBitIdentical(mlpCtx.evaluate(plan),
                           referenceFor(perf, mlp, task, plan),
                           "mlp" + label);
        expectBitIdentical(transCtx.evaluate(plan),
                           referenceFor(perf, trans, task, plan),
                           "class-set change" + label);
    }
}

/**
 * OOM verdicts short-circuit to the memory verdict exactly like the
 * reference, and a feasible plan right after still matches.
 */
TEST(DeltaEval, OomShortCircuitMatchesFullAndPreservesState)
{
    for (bool keepTimeline : kTimelineSettings) {
        ModelDesc desc = model_zoo::gpt3();
        PerfModelOptions opts;
        opts.keepTimeline = keepTimeline;
        PerfModel perf(hw_zoo::llmTrainingSystem(), opts);
        TaskSpec task = TaskSpec::preTraining();
        EvalContext context(perf, desc, task);

        // Fully replicated GPT-3 training state cannot fit one device.
        ParallelPlan oom;
        oom.set(LayerClass::Transformer, HierStrategy{Strategy::DDP});
        oom.set(LayerClass::DenseEmbedding, HierStrategy{Strategy::DDP});
        oom.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
        const ParallelPlan feasible = ParallelPlan::fsdpBaseline();

        const std::string label = timelineLabel(keepTimeline);
        context.evaluate(feasible);
        const PerfReport gotOom = context.evaluate(oom);
        ASSERT_FALSE(gotOom.valid);
        expectBitIdentical(gotOom, referenceFor(perf, desc, task, oom),
                           "OOM short-circuit" + label);
        expectBitIdentical(context.evaluate(feasible),
                           referenceFor(perf, desc, task, feasible),
                           "post-OOM resume" + label);
    }
}

/**
 * The splice's buffers only grow, so a smaller splice runs over a
 * larger one's leftover entries, and a larger one over a smaller
 * one's: GPT-3 pre-training, LLM-MoE inference, DLRM-A inference,
 * GPT-3 pre-training again, on one thread. GPT-3's leftover compute
 * intervals overlap LLM-MoE inference's comm intervals, so reading
 * one past LLM-MoE's own count would change its exposed time. Each
 * splice must read only what it wrote, so every report stays bitwise
 * equal to the reference.
 */
TEST(DeltaEval, GrowOnlyBuffersNeverLeakAnEarlierSplice)
{
    for (bool keepTimeline : kTimelineSettings) {
        PerfModelOptions opts;
        opts.keepTimeline = keepTimeline;
        PerfModel llm(hw_zoo::llmTrainingSystem(), opts);
        PerfModel dlrm(hw_zoo::dlrmTrainingSystem(), opts);
        const ModelDesc gpt3 = model_zoo::gpt3();
        const ModelDesc moe = model_zoo::llmMoe();
        const ModelDesc dlrmA = model_zoo::dlrmA();
        const TaskSpec pretrain = TaskSpec::preTraining();
        const TaskSpec inference = TaskSpec::inference();
        EvalContext gpt3Train(llm, gpt3, pretrain);
        EvalContext moeInfer(llm, moe, inference);
        EvalContext dlrmInfer(dlrm, dlrmA, inference);

        const ParallelPlan plan = ParallelPlan::fsdpBaseline();
        const PerfReport wantGpt3 =
            referenceFor(llm, gpt3, pretrain, plan);
        const PerfReport wantMoe = referenceFor(llm, moe, inference, plan);
        const PerfReport wantDlrm =
            referenceFor(dlrm, dlrmA, inference, plan);
        ASSERT_TRUE(wantGpt3.valid);
        ASSERT_TRUE(wantMoe.valid);
        ASSERT_TRUE(wantDlrm.valid);
        const std::string label = timelineLabel(keepTimeline);
        expectBitIdentical(gpt3Train.evaluate(plan), wantGpt3,
                           "GPT-3 pre-training" + label);
        expectBitIdentical(moeInfer.evaluate(plan), wantMoe,
                           "LLM-MoE inference after GPT-3" + label);
        expectBitIdentical(dlrmInfer.evaluate(plan), wantDlrm,
                           "DLRM-A inference after LLM-MoE" + label);
        expectBitIdentical(gpt3Train.evaluate(plan), wantGpt3,
                           "GPT-3 pre-training again" + label);
    }
}

// --- Guided searches on the engine pool -------------------------------

namespace
{

/** A two-point joint space over DLRM-A. */
struct GuidedFixture
{
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    PerfModel small{hw_zoo::dlrmTrainingSystem().withNumNodes(8)};
    PerfModel large{hw_zoo::dlrmTrainingSystem()};
    SearchSpace space = makeSearchSpace({&small, &large}, desc, task);
};

EvalEngineOptions
pooled()
{
    EvalEngineOptions eo;
    eo.jobs = 4;
    return eo;
}

/** Byte-exact fingerprint of one visited candidate. */
std::string
candidateKey(size_t hwIndex, const ParallelPlan &plan,
             const PerfReport &report)
{
    std::string key = std::to_string(hwIndex) + '|' + plan.toString() +
                      (plan.fsdpPrefetch ? "+p" : "-p") + '|';
    key += std::to_string(report.valid) + '|';
    // Hex-exact doubles: any drift in the evaluation path shows here.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a|%a|%a", report.iterationTime,
                  report.exposedCommTime, report.memory.total());
    return key + buf;
}

std::vector<std::string>
outcomeTrace(const SearchOutcome &outcome)
{
    std::vector<std::string> trace;
    for (const SearchCandidate &c : outcome.evaluated)
        trace.push_back(candidateKey(c.hwIndex, c.plan, c.report));
    return trace;
}

std::vector<std::string>
paretoTrace(const std::vector<ParetoCandidate> &candidates)
{
    std::vector<std::string> trace;
    for (const ParetoCandidate &c : candidates)
        trace.push_back(candidateKey(c.hwIndex, c.plan, c.report));
    return trace;
}

} // namespace

TEST(GuidedPooled, SearchOutcomesMatchSerial)
{
    GuidedFixture cfg;
    for (const std::string &name :
         {std::string("coordinate-descent"), std::string("annealing"),
          std::string("genetic")}) {
        SearchOptions opts;
        opts.maxEvaluations = 60;

        EvalEngine serial;
        EvalEngine pool(pooled());
        const SearchOutcome a = runSearch(name, cfg.space, serial, opts);
        const SearchOutcome b = runSearch(name, cfg.space, pool, opts);

        EXPECT_EQ(outcomeTrace(a), outcomeTrace(b)) << name;
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations) << name;
        EXPECT_EQ(a.stats.cacheHits, b.stats.cacheHits) << name;
        EXPECT_EQ(a.stats.pruned, b.stats.pruned) << name;
    }
}

TEST(GuidedPooled, ParetoFrontiersMatchSerial)
{
    std::vector<HardwarePoint> hw = nodeCountSweep(
        hw_zoo::dlrmTrainingSystem(), {8, 16});
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();

    for (const std::string &name :
         {std::string("annealing"), std::string("genetic")}) {
        ParetoOptions opts;
        opts.strategy = name;
        opts.search.maxEvaluations = 60;

        EvalEngine pool(pooled());
        ParetoEngine serialEngine(hw);
        ParetoEngine pooledEngine(hw, &pool);
        const ParetoFrontier a = serialEngine.explore(desc, task, opts);
        const ParetoFrontier b = pooledEngine.explore(desc, task, opts);

        EXPECT_EQ(paretoTrace(a.points), paretoTrace(b.points)) << name;
        EXPECT_EQ(paretoTrace(a.bestPerHw), paretoTrace(b.bestPerHw))
            << name;
        EXPECT_EQ(paretoTrace(a.candidates), paretoTrace(b.candidates))
            << name;
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations) << name;
    }
}

} // namespace madmax
