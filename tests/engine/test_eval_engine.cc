/**
 * @file
 * EvalEngine tests: determinism across thread counts, memoization
 * correctness (cached report == fresh report), feasibility-pruning
 * accounting, canonical cache keys (a context's own prefix included),
 * and mixed multi-model batches.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "../report_check.hh"
#include "core/eval_context.hh"
#include "dse/strategy_explorer.hh"
#include "engine/eval_engine.hh"
#include "fleet/fleet_sim.hh"
#include "hw/hw_zoo.hh"
#include "model/layer.hh"
#include "model/model_zoo.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

/** Field-by-field equality on everything the benches consume. */
void
expectReportsEqual(const PerfReport &a, const PerfReport &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.modelName, b.modelName);
    EXPECT_EQ(a.taskName, b.taskName);
    EXPECT_EQ(a.plan.toString(), b.plan.toString());
    EXPECT_DOUBLE_EQ(a.iterationTime, b.iterationTime);
    EXPECT_DOUBLE_EQ(a.serializedTime, b.serializedTime);
    EXPECT_DOUBLE_EQ(a.computeTime, b.computeTime);
    EXPECT_DOUBLE_EQ(a.commTime, b.commTime);
    EXPECT_DOUBLE_EQ(a.exposedCommTime, b.exposedCommTime);
    EXPECT_DOUBLE_EQ(a.memory.total(), b.memory.total());
    EXPECT_EQ(a.serializedBreakdown.size(), b.serializedBreakdown.size());
}

} // namespace

TEST(EvalEngine, ExploreDeterministicAcrossThreadCounts)
{
    // The acceptance property: explore() with 1 thread and N threads
    // yields identical ranked results, bit for bit.
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc gpt3 = model_zoo::gpt3();

    EvalEngineOptions serial_opts;
    serial_opts.jobs = 1;
    EvalEngine serial(serial_opts);

    EvalEngineOptions pooled_opts;
    pooled_opts.jobs = 4;
    EvalEngine pooled(pooled_opts);

    ExplorerOptions opts;
    opts.explorePrefetch = true;
    Exploration a = StrategyExplorer(model, &serial)
                        .explore(gpt3, TaskSpec::preTraining(), opts);
    Exploration b = StrategyExplorer(model, &pooled)
                        .explore(gpt3, TaskSpec::preTraining(), opts);

    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].plan.toString(),
                  b.results[i].plan.toString())
            << "rank " << i;
        EXPECT_DOUBLE_EQ(a.results[i].report.throughput(),
                         b.results[i].report.throughput())
            << "rank " << i;
    }
    EXPECT_EQ(a.stats.requests(), b.stats.requests());
    EXPECT_EQ(a.stats.pruned, b.stats.pruned);
}

TEST(EvalEngine, MemoizedReportEqualsFreshReport)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});

    EvalEngine engine;
    EvalStats first, second;
    PerfReport fresh = engine.evaluateOne(model, dlrm, task, plan,
                                          &first);
    PerfReport cached = engine.evaluateOne(model, dlrm, task, plan,
                                           &second);

    EXPECT_EQ(first.evaluations, 1);
    EXPECT_EQ(first.cacheHits, 0);
    EXPECT_EQ(second.evaluations, 0);
    EXPECT_EQ(second.cacheHits, 1);
    expectReportsEqual(fresh, cached);

    // And both match a direct, engine-free evaluation.
    expectReportsEqual(fresh, model.evaluate(dlrm, task, plan));
}

TEST(EvalEngine, PruningCountsOomPlans)
{
    // Every invalid result of an exploration must have been resolved
    // by the memory pre-pass, not a full evaluation.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    EvalEngine engine;
    StrategyExplorer explorer(model, &engine);
    Exploration ex =
        explorer.explore(model_zoo::dlrmA(), TaskSpec::preTraining());

    long invalid = 0;
    for (const ExplorationResult &r : ex.results)
        invalid += r.report.valid ? 0 : 1;
    ASSERT_GT(invalid, 0) << "fixture needs at least one OOM plan";
    EXPECT_EQ(ex.stats.pruned, invalid);
    EXPECT_EQ(ex.stats.evaluations,
              static_cast<long>(ex.results.size()) - invalid);
    EXPECT_EQ(ex.stats.cacheHits, 0);
    EXPECT_GT(ex.stats.wallSeconds, 0.0);
}

TEST(EvalEngine, PrunedExplorationMatchesDirectEvaluation)
{
    // The pre-pass resolves OOM plans without a full evaluation; every
    // report, pruned or evaluated, must equal PerfModel::evaluate's.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    EvalEngine engine;
    Exploration ex = StrategyExplorer(model, &engine).explore(dlrm, task);

    for (const ExplorationResult &r : ex.results) {
        SCOPED_TRACE(r.plan.toString());
        testing::expectBitIdentical(r.report,
                                    model.evaluate(dlrm, task, r.plan));
    }
    EXPECT_GT(ex.stats.pruned, 0);
    EXPECT_EQ(ex.stats.evaluations + ex.stats.pruned,
              static_cast<long>(ex.results.size()));
}

TEST(EvalEngine, PrunedBatchesMatchDirectEvaluationAcrossThreadCounts)
{
    // One mixed DLRM-A / GPT-3 batch with OOM and fitting plans. Each
    // fitting plan's pre-pass verdict rides into its evaluation; with
    // jobs = 4 that hand-off crosses into the pool (the tsan job
    // covers it). Every report, pruned or evaluated, must come out bit
    // for bit the same as PerfModel::evaluate's.
    PerfModel dlrmModel(hw_zoo::dlrmTrainingSystem());
    PerfModel llmModel(hw_zoo::llmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();

    using S = Strategy;
    std::vector<PlanRequest> reqs;
    for (HierStrategy hs :
         {HierStrategy{S::DDP}, HierStrategy{S::FSDP}, HierStrategy{S::TP},
          HierStrategy{S::TP, S::DDP}, HierStrategy{S::TP, S::FSDP},
          HierStrategy{S::FSDP, S::DDP}}) {
        ParallelPlan dense;
        dense.set(LayerClass::BaseDense, hs);
        reqs.push_back({&dlrmModel, &dlrm, &task, dense});
        ParallelPlan blocks;
        blocks.set(LayerClass::Transformer, hs);
        blocks.fsdpPrefetch = true;
        reqs.push_back({&llmModel, &gpt3, &task, blocks});
    }
    std::vector<PerfReport> direct;
    for (const PlanRequest &req : reqs)
        direct.push_back(req.model->evaluate(*req.desc, task, req.plan));

    for (int jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        EvalEngineOptions eo;
        eo.jobs = jobs;
        EvalEngine engine(eo);
        EvalStats stats;
        std::vector<PerfReport> reports = engine.evaluateAll(reqs, &stats);

        long oom = 0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            const PerfReport &r = reports[i];
            testing::expectBitIdentical(r, direct[i]);
            EXPECT_FALSE(r.failed());
            EXPECT_TRUE(engine.isCached(EvalEngine::memoKey(reqs[i])));
            if (r.valid)
                continue;
            ++oom;
            // Verdict-only: nothing was scheduled.
            EXPECT_EQ(r.iterationTime, 0.0);
            EXPECT_TRUE(r.serializedBreakdown.empty());
        }
        EXPECT_GT(oom, 0) << "fixture needs OOM plans";
        EXPECT_LT(oom, static_cast<long>(reqs.size()))
            << "fixture needs fitting plans";
        EXPECT_EQ(stats.pruned, oom);
        EXPECT_EQ(stats.evaluations,
                  static_cast<long>(reqs.size()) - stats.pruned);

        // OOM verdicts were memoized with the rest: a second pass is
        // all hits.
        EvalStats again;
        engine.evaluateAll(reqs, &again);
        EXPECT_EQ(again.cacheHits, static_cast<long>(reqs.size()));
    }
}

TEST(EvalEngine, CacheKeySuffixSeparatesEveryStrategyPair)
{
    // The suffix writes each present class's (intra, inter) pair as
    // two fixed bytes: every pair for two classes, under both
    // prefetch settings, is its own point...
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();
    auto key = [&](const ParallelPlan &plan) {
        return EvalEngine::cacheKey({&model, &gpt3, &task, plan});
    };
    const Strategy all[] = {Strategy::None, Strategy::DDP, Strategy::FSDP,
                            Strategy::TP, Strategy::MP};
    std::set<std::string> keys;
    size_t points = 0;
    for (Strategy ei : all) {
        for (Strategy eo : all) {
            for (Strategy ti : all) {
                for (Strategy to : all) {
                    for (bool prefetch : {false, true}) {
                        ParallelPlan plan;
                        plan.set(LayerClass::DenseEmbedding,
                                 HierStrategy{ei, eo});
                        plan.set(LayerClass::Transformer,
                                 HierStrategy{ti, to});
                        plan.fsdpPrefetch = prefetch;
                        keys.insert(key(plan));
                        ++points;
                    }
                }
            }
        }
    }
    EXPECT_EQ(keys.size(), points);

    // ...while explicit defaults and absent entries stay one point.
    ParallelPlan explicitDefaults;
    explicitDefaults.set(LayerClass::DenseEmbedding,
                         HierStrategy{Strategy::FSDP});
    explicitDefaults.set(LayerClass::Transformer,
                         HierStrategy{Strategy::FSDP});
    EXPECT_EQ(key(explicitDefaults), key(ParallelPlan{}));
}

TEST(EvalEngine, CanonicalKeyIgnoresAbsentClasses)
{
    // GPT-3 has no sparse embeddings: two plans differing only in the
    // SparseEmbedding strategy are the same point and must collide.
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();

    ParallelPlan a = ParallelPlan::fsdpBaseline();
    ParallelPlan b = ParallelPlan::fsdpBaseline();
    b.set(LayerClass::SparseEmbedding,
          HierStrategy{Strategy::MP, Strategy::DDP});

    EvalEngine engine;
    EvalStats stats;
    engine.evaluateOne(model, gpt3, task, a, &stats);
    PerfReport hit = engine.evaluateOne(model, gpt3, task, b, &stats);
    EXPECT_EQ(stats.evaluations, 1);
    EXPECT_EQ(stats.cacheHits, 1);
    // The served report carries the *requested* plan, not the cached
    // insertion's plan.
    EXPECT_EQ(hit.plan.toString(), b.toString());
}

TEST(EvalEngine, CacheKeyIsGroupPrefixPlusPlanSuffix)
{
    // A key is its (model, desc, task) group's prefix and a plan code,
    // and its text is the prefix text then the plan suffix. Two
    // requests of one group must therefore agree on everything up to
    // and including the final '|'; only the plan suffix differs.
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();

    PlanRequest a{&model, &gpt3, &task, ParallelPlan::fsdpBaseline()};
    ParallelPlan tp;
    tp.set(LayerClass::Transformer,
           HierStrategy{Strategy::TP, Strategy::DDP});
    PlanRequest b{&model, &gpt3, &task, tp};

    std::string ka = EvalEngine::cacheKey(a);
    std::string kb = EvalEngine::cacheKey(b);
    size_t cut_a = ka.rfind('|');
    size_t cut_b = kb.rfind('|');
    ASSERT_NE(cut_a, std::string::npos);
    EXPECT_EQ(ka.substr(0, cut_a), kb.substr(0, cut_b))
        << "same group, same prefix";
    EXPECT_NE(ka.substr(cut_a), kb.substr(cut_b))
        << "different plans, different suffix";

    // A different task lands in a different group: the prefixes must
    // already diverge.
    TaskSpec inf = TaskSpec::inference();
    PlanRequest c{&model, &gpt3, &inf, ParallelPlan::fsdpBaseline()};
    std::string kc = EvalEngine::cacheKey(c);
    EXPECT_NE(ka.substr(0, cut_a), kc.substr(0, kc.rfind('|')));
}

namespace
{

/** Three plans with distinct keys on every zoo model: the FSDP
 *  baseline, the same without prefetch, and a TP/MP-heavy plan. */
std::vector<ParallelPlan>
threeKeyedPlans()
{
    ParallelPlan noPrefetch = ParallelPlan::fsdpBaseline();
    noPrefetch.fsdpPrefetch = !noPrefetch.fsdpPrefetch;
    ParallelPlan sharded;
    for (LayerClass cls : {LayerClass::DenseEmbedding,
                           LayerClass::BaseDense, LayerClass::Transformer})
        sharded.set(cls, HierStrategy{Strategy::TP, Strategy::DDP});
    for (LayerClass cls : {LayerClass::SparseEmbedding, LayerClass::MoE})
        sharded.set(cls, HierStrategy{Strategy::MP, Strategy::DDP});
    return {ParallelPlan::fsdpBaseline(), noPrefetch, sharded};
}

} // namespace

namespace
{

/** Calls @p fn(model, desc, task) for twelve zoo models (Table II's
 *  ten, ViT-H and LLaMA-2-7B), each on its flat training system and on
 *  that system's rail topology, pre-training and inference. */
template <typename Fn>
void
forEachZooTriple(Fn &&fn)
{
    std::vector<ModelDesc> zoo = model_zoo::tableIISuite();
    zoo.push_back(model_zoo::vit(model_zoo::VitSize::H, 4096));
    zoo.push_back(model_zoo::llama2_7b());
    for (const ModelDesc &desc : zoo) {
        ClusterSpec flat = desc.isRecommendation
            ? hw_zoo::dlrmTrainingSystem()
            : hw_zoo::llmTrainingSystem();
        for (const ClusterSpec &cluster :
             {flat, hw_zoo::withTopology(flat,
                                         hw_zoo::dcRailTopology(flat))}) {
            PerfModel model(cluster);
            for (const TaskSpec &task :
                 {TaskSpec::preTraining(), TaskSpec::inference()}) {
                SCOPED_TRACE(desc.name + " on " + cluster.name +
                             (cluster.topology ? " (topology), " : ", ") +
                             task.toString());
                fn(model, desc, task);
            }
        }
    }
}

constexpr LayerClass kEveryClass[] = {
    LayerClass::SparseEmbedding, LayerClass::DenseEmbedding,
    LayerClass::BaseDense, LayerClass::Transformer, LayerClass::MoE};

/** Every plan of the explorer's space for @p desc (the candidates of
 *  each present class), with prefetch off and on. */
std::vector<ParallelPlan>
explorerPlans(const ModelDesc &desc)
{
    std::vector<ParallelPlan> plans(1);
    for (LayerClass cls : kEveryClass) {
        if (!desc.graph.hasClass(cls))
            continue;
        std::vector<ParallelPlan> next;
        for (const ParallelPlan &plan : plans) {
            for (HierStrategy hs : StrategyExplorer::candidates(cls)) {
                next.push_back(plan);
                next.back().set(cls, hs);
            }
        }
        plans = std::move(next);
    }
    const size_t n = plans.size();
    for (size_t i = 0; i < n; ++i) {
        plans.push_back(plans[i]);
        plans.back().fsdpPrefetch = true;
    }
    return plans;
}

} // namespace

TEST(EvalEngine, ContextPrefixKeysEqualCacheKeyAcrossTheZoo)
{
    // A request that carries an EvalContext is keyed by the context's
    // own prefix. Those keys must equal the keys of a freshly built
    // prefix: a later context-less batch of the same plans then hits
    // every one.
    const std::vector<ParallelPlan> plans = threeKeyedPlans();
    const long n = static_cast<long>(plans.size());
    forEachZooTriple([&](const PerfModel &model, const ModelDesc &desc,
                         const TaskSpec &task) {
        EvalContext ctx(model, desc, task);
        std::vector<PlanRequest> reqs;
        for (const ParallelPlan &plan : plans) {
            reqs.push_back(PlanRequest{&model, &desc, &task, plan});
            reqs.back().context = &ctx;
        }
        EvalEngine engine;
        engine.evaluateAll(reqs);
        EXPECT_EQ(engine.counters().cacheEntries, static_cast<size_t>(n));
        for (PlanRequest &req : reqs) {
            req.context = nullptr;
            EXPECT_TRUE(engine.isCached(EvalEngine::memoKey(req)))
                << req.plan.toString();
        }
        EvalStats stats;
        engine.evaluateAll(reqs, &stats);
        EXPECT_EQ(stats.cacheHits, n);
        EXPECT_EQ(stats.evaluations, 0);
    });
}

TEST(EvalEngine, MemoKeyEqualityIsCacheKeyTextEquality)
{
    // Every explorer plan across the zoo, each next to a twin that
    // also sets strategies for the model's absent classes. Two keys
    // are equal exactly when their cacheKey texts are, and equal keys
    // hash equal, whether they share a prefix handle or hold two
    // equal prefixes. The text overload of tryCached finds what
    // evaluateAll stored, and the memo holds the context's prefix by
    // handle, never a copy.
    std::set<std::string> prefixes;
    forEachZooTriple([&](const PerfModel &model, const ModelDesc &desc,
                         const TaskSpec &task) {
        EvalContext ctx(model, desc, task);
        std::vector<PlanRequest> reqs;
        for (const ParallelPlan &plan : explorerPlans(desc)) {
            ParallelPlan twin = plan;
            for (LayerClass cls : kEveryClass)
                if (!desc.graph.hasClass(cls))
                    twin.set(cls, StrategyExplorer::candidates(cls).back());
            for (const ParallelPlan &p : {plan, twin}) {
                reqs.push_back(PlanRequest{&model, &desc, &task, p});
                reqs.back().context = &ctx;
            }
        }
        EvalEngineOptions eo;
        eo.cacheCapacity = reqs.size();
        EvalEngine engine(eo);
        const std::vector<PerfReport> reports = engine.evaluateAll(reqs);
        const size_t distinct = engine.counters().cacheEntries;
        EXPECT_EQ(2 * distinct, reqs.size());
        EXPECT_EQ(ctx.memoPrefix().use_count(),
                  static_cast<long>(distinct) + 1);

        const auto copy = memoKeyPrefix(model, desc, task);
        ASSERT_NE(copy, ctx.memoPrefix());
        EXPECT_TRUE(prefixes.insert(copy->text).second)
            << "two triples share a prefix";
        const MemoKeyHash hash;
        std::map<std::string, MemoKey> keyOf;
        std::unordered_map<MemoKey, std::string, MemoKeyHash> textOf;
        for (size_t i = 0; i < reqs.size(); ++i) {
            SCOPED_TRACE(reqs[i].plan.toString());
            const std::string text = EvalEngine::cacheKey(reqs[i]);
            const MemoKey key = EvalEngine::memoKey(reqs[i]);
            PlanRequest viaCopy = reqs[i];
            viaCopy.context = nullptr;
            viaCopy.keyPrefix = copy;
            const MemoKey other = EvalEngine::memoKey(viaCopy);
            ASSERT_EQ(key.prefix, ctx.memoPrefix());
            EXPECT_TRUE(key == other);
            EXPECT_EQ(hash(key), hash(other));

            auto [k, newText] = keyOf.emplace(text, key);
            if (!newText) {
                EXPECT_TRUE(k->second == other);
                EXPECT_EQ(hash(k->second), hash(other));
            }
            auto [t, newKey] = textOf.emplace(other, text);
            if (!newKey) {
                EXPECT_EQ(t->second, text);
            }

            PerfReport out;
            ASSERT_TRUE(engine.tryCached(text, reqs[i].plan, out));
            testing::expectBitIdentical(out, reports[i]);
        }
        EXPECT_EQ(keyOf.size(), distinct);
        EXPECT_EQ(textOf.size(), distinct);
    });
}

TEST(EvalEngine, ConcurrentBatchesBuildOneContextPrefix)
{
    // Two threads key their batches by one shared context whose
    // prefix neither has built yet: the prefix is built once (no
    // data race) and both key every plan alike, so the shared memo
    // holds one entry per plan.
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc desc = model_zoo::llama2_7b();
    TaskSpec task = TaskSpec::preTraining();
    EvalContext ctx(model, desc, task);
    std::vector<PlanRequest> reqs;
    for (const ParallelPlan &plan : threeKeyedPlans()) {
        reqs.push_back(PlanRequest{&model, &desc, &task, plan});
        reqs.back().context = &ctx;
    }

    EvalEngine engine;
    std::atomic<int> ready{0};
    std::vector<PerfReport> results[2];
    auto run = [&](int t) {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        results[t] = engine.evaluateAll(reqs);
    };
    std::thread a(run, 0);
    std::thread b(run, 1);
    a.join();
    b.join();

    EXPECT_EQ(engine.counters().cacheEntries, reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        PlanRequest contextless = reqs[i];
        contextless.context = nullptr;
        EXPECT_TRUE(engine.isCached(EvalEngine::memoKey(contextless)));
        expectReportsEqual(results[0][i], results[1][i]);
    }
    EXPECT_EQ(ctx.memoPrefix()->text,
              memoKeyPrefix(model, desc, task)->text);
}

TEST(EvalEngine, CacheKeySeparatesClustersOneUlpApart)
{
    // The key writes each double's bit pattern, so a bandwidth one ulp
    // away is a different point.
    ClusterSpec base = hw_zoo::llmTrainingSystem();
    ClusterSpec bumped = base;
    bumped.device.interNodeBandwidth =
        std::nextafter(base.device.interNodeBandwidth, 1e30);
    ASSERT_NE(bumped.device.interNodeBandwidth,
              base.device.interNodeBandwidth);
    PerfModel a(base);
    PerfModel b(bumped);
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();
    ParallelPlan plan = ParallelPlan::fsdpBaseline();

    EXPECT_NE(EvalEngine::cacheKey({&a, &gpt3, &task, plan}),
              EvalEngine::cacheKey({&b, &gpt3, &task, plan}));
}

TEST(EvalEngine, CacheKeySeparatesSameNameModelsByLayerWidth)
{
    // Two models with one name, one layer count and one in/out shape;
    // only the hidden width of the first MLP differs.
    auto mlpModel = [](long width) {
        ModelDesc m;
        m.name = "custom-mlp";
        m.globalBatchSize = 4096;
        int first = m.graph.addLayer(std::make_unique<MlpLayer>(
            "mlp0", LayerClass::BaseDense,
            std::vector<long>{512, width, 256}));
        m.graph.addLayer(std::make_unique<MlpLayer>(
                             "mlp1", LayerClass::BaseDense,
                             std::vector<long>{256, 256, 1}),
                         {first});
        return m;
    };
    ModelDesc narrow = mlpModel(1024);
    ModelDesc wide = mlpModel(1025);
    ModelDesc narrowAgain = mlpModel(1024);
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    TaskSpec task = TaskSpec::preTraining();
    ParallelPlan plan = ParallelPlan::fsdpBaseline();

    EXPECT_NE(EvalEngine::cacheKey({&model, &narrow, &task, plan}),
              EvalEngine::cacheKey({&model, &wide, &task, plan}));
    EXPECT_EQ(EvalEngine::cacheKey({&model, &narrow, &task, plan}),
              EvalEngine::cacheKey({&model, &narrowAgain, &task, plan}));
}

TEST(EvalEngine, DistinguishesModelsTasksAndClusters)
{
    ModelDesc gpt3 = model_zoo::gpt3();
    ModelDesc llama = model_zoo::llama65b();
    PerfModel llm(hw_zoo::llmTrainingSystem());
    PerfModel scaled(
        hw_zoo::llmTrainingSystem().withComputeScale(2.0));
    ParallelPlan plan = ParallelPlan::fsdpBaseline();
    TaskSpec pre = TaskSpec::preTraining();
    TaskSpec inf = TaskSpec::inference();

    EvalEngine engine;
    EvalStats stats;
    engine.evaluateOne(llm, gpt3, pre, plan, &stats);
    engine.evaluateOne(llm, llama, pre, plan, &stats);   // New model.
    engine.evaluateOne(llm, gpt3, inf, plan, &stats);    // New task.
    engine.evaluateOne(scaled, gpt3, pre, plan, &stats); // New cluster.
    EXPECT_EQ(stats.evaluations, 4);
    EXPECT_EQ(stats.cacheHits, 0);
}

TEST(EvalEngine, MixedBatchMatchesDirectEvaluation)
{
    // Fleet-style batch: different models on different clusters in
    // one evaluateAll call.
    PerfModel dlrm_model(hw_zoo::dlrmTrainingSystem());
    PerfModel llm_model(hw_zoo::llmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();
    ParallelPlan dlrm_plan;
    dlrm_plan.set(LayerClass::BaseDense,
                  HierStrategy{Strategy::TP, Strategy::DDP});
    ParallelPlan llm_plan = ParallelPlan::fsdpBaseline();

    std::vector<PlanRequest> reqs(2);
    reqs[0].model = &dlrm_model;
    reqs[0].desc = &dlrm;
    reqs[0].task = &task;
    reqs[0].plan = dlrm_plan;
    reqs[1].model = &llm_model;
    reqs[1].desc = &gpt3;
    reqs[1].task = &task;
    reqs[1].plan = llm_plan;

    EvalEngineOptions eo;
    eo.jobs = 2;
    EvalEngine engine(eo);
    std::vector<PerfReport> out = engine.evaluateAll(reqs);
    ASSERT_EQ(out.size(), 2u);
    expectReportsEqual(out[0],
                       dlrm_model.evaluate(dlrm, task, dlrm_plan));
    expectReportsEqual(out[1],
                       llm_model.evaluate(gpt3, task, llm_plan));
}

TEST(EvalEngine, DuplicateRequestsInOneBatchCollapse)
{
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();

    std::vector<PlanRequest> reqs(3);
    for (PlanRequest &r : reqs) {
        r.model = &model;
        r.desc = &gpt3;
        r.task = &task;
        r.plan = ParallelPlan::fsdpBaseline();
    }
    EvalEngine engine;
    EvalStats stats;
    std::vector<PerfReport> out = engine.evaluateAll(reqs, &stats);
    EXPECT_EQ(stats.evaluations, 1);
    EXPECT_EQ(stats.cacheHits, 2);
    expectReportsEqual(out[0], out[1]);
    expectReportsEqual(out[0], out[2]);
}

TEST(EvalEngine, CacheCapacityEvicts)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();

    EvalEngineOptions eo;
    eo.cacheCapacity = 2;
    EvalEngine engine(eo);
    for (HierStrategy hs :
         StrategyExplorer::candidates(LayerClass::BaseDense)) {
        ParallelPlan p;
        p.set(LayerClass::BaseDense, hs);
        engine.evaluateOne(model, dlrm, task, p);
    }
    EXPECT_LE(engine.counters().cacheEntries, 2u);
}

TEST(EvalEngine, FleetRunDeterministicAcrossThreadCounts)
{
    EvalEngineOptions pooled_opts;
    pooled_opts.jobs = 4;
    EvalEngine serial;
    EvalEngine pooled(pooled_opts);
    FleetSimulator fleet = FleetSimulator::representativeFleet();
    FleetReport a = fleet.run(&serial);
    FleetReport b = fleet.run(&pooled);

    EXPECT_DOUBLE_EQ(a.overall.compute, b.overall.compute);
    EXPECT_DOUBLE_EQ(a.overall.exposedComm, b.overall.exposedComm);
    EXPECT_DOUBLE_EQ(a.overall.idle, b.overall.idle);
    ASSERT_EQ(a.byFamily.size(), b.byFamily.size());
    for (const auto &[family, breakdown] : a.byFamily) {
        EXPECT_DOUBLE_EQ(breakdown.compute,
                         b.byFamily.at(family).compute)
            << family;
    }
}

TEST(EvalEngine, BestStatsCoverWholeSearch)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    EvalEngine engine;
    StrategyExplorer explorer(model, &engine);
    ExplorationResult best =
        explorer.best(model_zoo::dlrmA(), TaskSpec::preTraining());
    // DLRM-A spans 2 x 8 = 16 plans; best() explores them all.
    EXPECT_EQ(best.stats.requests(), 16);
    EXPECT_GT(best.stats.pruned, 0);
    EXPECT_GT(best.stats.wallSeconds, 0.0);
}

TEST(EvalEngine, RejectsNegativeJobs)
{
    EvalEngineOptions eo;
    eo.jobs = -1;
    EXPECT_THROW(EvalEngine{eo}, ConfigError);
}

TEST(EvalEngine, InjectedFailureIsIsolatedToItsSlot)
{
    // jobs=1 makes the evaluation order the submission order, so an
    // nth-trigger fault lands on a known slot.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();

    // All three plans are memory-feasible on dlrmA (DDP/DDP is not —
    // it would be verdict-pruned and never occupy an evaluation
    // slot, shifting the nth trigger).
    ParallelPlan a, b, c;
    a.set(LayerClass::BaseDense,
          HierStrategy{Strategy::TP, Strategy::DDP});
    b.set(LayerClass::BaseDense,
          HierStrategy{Strategy::DDP, Strategy::TP});
    c.set(LayerClass::BaseDense,
          HierStrategy{Strategy::TP, Strategy::TP});

    std::vector<PlanRequest> requests;
    for (const ParallelPlan *plan : {&a, &b, &c})
        requests.push_back(PlanRequest{&model, &dlrm, &task, *plan});

    EvalEngineOptions eo;
    eo.jobs = 1;
    EvalEngine engine(eo);
    EvalStats stats;
    std::vector<PerfReport> results;
    {
        FaultScope scope("engine.eval=throw@nth:2");
        results = engine.evaluateAll(requests, &stats);
    }

    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed());
    ASSERT_TRUE(results[1].failed());
    EXPECT_FALSE(results[2].failed());

    // The failure report keeps its identity fields and carries the
    // taxonomy kind for an unexpected exception.
    EXPECT_EQ(results[1].errorKind, EvalErrorKind::Internal);
    EXPECT_FALSE(results[1].errorMessage.empty());
    EXPECT_EQ(results[1].modelName, dlrm.name);
    EXPECT_FALSE(results[1].valid);

    // Failed requests still occupy evaluation slots.
    EXPECT_EQ(stats.evaluations, 3);
    EXPECT_EQ(stats.failed, 1);

    // Healthy slots match an engine-free evaluation bit for bit.
    expectReportsEqual(results[0], model.evaluate(dlrm, task, a));
    expectReportsEqual(results[2], model.evaluate(dlrm, task, c));
}

TEST(EvalEngine, FailedReportsAreNeverMemoized)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});

    EvalEngineOptions eo;
    eo.jobs = 1;
    EvalEngine engine(eo);

    EvalStats first;
    PerfReport failed;
    {
        FaultScope scope("engine.eval=throw@nth:1");
        failed = engine.evaluateOne(model, dlrm, task, plan, &first);
    }
    ASSERT_TRUE(failed.failed());
    EXPECT_EQ(first.failed, 1);

    // The retry must re-evaluate (no poisoned cache entry) and
    // succeed now that the fault is disarmed.
    EvalStats second;
    PerfReport retried =
        engine.evaluateOne(model, dlrm, task, plan, &second);
    EXPECT_FALSE(retried.failed());
    EXPECT_EQ(second.cacheHits, 0);
    EXPECT_EQ(second.evaluations, 1);
    EXPECT_EQ(second.failed, 0);
    expectReportsEqual(retried, model.evaluate(dlrm, task, plan));

    // And the healthy report memoizes as usual.
    EvalStats third;
    engine.evaluateOne(model, dlrm, task, plan, &third);
    EXPECT_EQ(third.cacheHits, 1);
}

TEST(EvalEngine, BadAllocMapsToResourceKind)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    ModelDesc dlrm = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});

    EvalEngineOptions eo;
    eo.jobs = 1;
    EvalEngine engine(eo);
    FaultScope scope("engine.eval=badalloc");
    PerfReport report = engine.evaluateOne(model, dlrm, task, plan);
    ASSERT_TRUE(report.failed());
    EXPECT_EQ(report.errorKind, EvalErrorKind::Resource);
}

namespace
{

/** DLRM-A on its training system, with a fixed plan per BaseDense
 *  strategy: the point set of the memo-body tests. */
struct DlrmPoints
{
    PerfModel model{hw_zoo::dlrmTrainingSystem()};
    ModelDesc dlrm = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();

    ParallelPlan plan(Strategy intra) const
    {
        ParallelPlan p;
        p.set(LayerClass::BaseDense, HierStrategy{intra, Strategy::DDP});
        return p;
    }

    MemoKey key(const ParallelPlan &p) const
    {
        return EvalEngine::memoKey({&model, &dlrm, &task, p});
    }
};

std::shared_ptr<const RenderedBody>
bodyFor(const ParallelPlan &plan, const std::string &bytes)
{
    return std::make_shared<const RenderedBody>(RenderedBody{plan, bytes});
}

void
expectEntriesBalance(const EvalEngine &engine)
{
    EngineCounters c = engine.counters();
    EXPECT_EQ(static_cast<long>(c.cacheEntries),
              c.cacheInsertions - c.cacheEvictions);
}

} // namespace

TEST(EvalEngine, StoredBodyLeavesWithItsReportOnEviction)
{
    DlrmPoints pts;
    ParallelPlan a = pts.plan(Strategy::TP);
    ParallelPlan b = pts.plan(Strategy::FSDP);
    EvalEngineOptions eo;
    eo.jobs = 1;
    eo.cacheCapacity = 1;
    EvalEngine engine(eo);

    engine.evaluateOne(pts.model, pts.dlrm, pts.task, a);
    MemoEntry hit;
    ASSERT_TRUE(engine.tryCached(pts.key(a), hit));
    EXPECT_EQ(hit.body, nullptr);
    std::weak_ptr<const RenderedBody> stored;
    {
        auto body = bodyFor(a, "A");
        stored = body;
        ASSERT_TRUE(engine.attachBody(pts.key(a), hit.report, body));
    }
    MemoEntry again;
    ASSERT_TRUE(engine.tryCached(pts.key(a), again));
    ASSERT_NE(again.body, nullptr);
    EXPECT_EQ(again.body->bytes, "A");
    again = MemoEntry{};

    // b evicts a, and the body goes with it.
    engine.evaluateOne(pts.model, pts.dlrm, pts.task, b);
    EXPECT_TRUE(stored.expired());
    EXPECT_FALSE(engine.tryCached(pts.key(a), again));
    EngineCounters c = engine.counters();
    EXPECT_EQ(c.cacheInsertions, 2);
    EXPECT_EQ(c.cacheEvictions, 1);
    expectEntriesBalance(engine);

    // Re-inserted, a starts without a body, and a body rendered for
    // the evicted report cannot attach to the new one.
    engine.evaluateOne(pts.model, pts.dlrm, pts.task, a);
    ASSERT_TRUE(engine.tryCached(pts.key(a), again));
    EXPECT_EQ(again.body, nullptr);
    EXPECT_FALSE(engine.attachBody(pts.key(a), hit.report,
                                   bodyFor(a, "stale")));
    expectEntriesBalance(engine);
}

TEST(EvalEngine, ClearCacheDropsStoredBodies)
{
    DlrmPoints pts;
    ParallelPlan a = pts.plan(Strategy::TP);
    EvalEngine engine;
    engine.evaluateOne(pts.model, pts.dlrm, pts.task, a);
    MemoEntry hit;
    ASSERT_TRUE(engine.tryCached(pts.key(a), hit));
    std::weak_ptr<const RenderedBody> stored;
    {
        auto body = bodyFor(a, "A");
        stored = body;
        ASSERT_TRUE(engine.attachBody(pts.key(a), hit.report, body));
    }
    hit = MemoEntry{};

    engine.clearCache();
    EXPECT_TRUE(stored.expired());
    EXPECT_FALSE(engine.tryCached(pts.key(a), hit));
    expectEntriesBalance(engine);
}

TEST(EvalEngine, AttachBodyIsSetOnce)
{
    // DLRM-A has no transformer layers, so a and b share one key.
    DlrmPoints pts;
    ParallelPlan a = pts.plan(Strategy::TP);
    ParallelPlan b = a;
    b.set(LayerClass::Transformer, HierStrategy{Strategy::FSDP});
    ASSERT_EQ(pts.key(a), pts.key(b));
    ASSERT_FALSE(a == b);

    EvalEngine engine;
    engine.evaluateOne(pts.model, pts.dlrm, pts.task, a);
    MemoEntry hit;
    ASSERT_TRUE(engine.tryCached(pts.key(a), hit));
    EXPECT_TRUE(engine.attachBody(pts.key(a), hit.report, bodyFor(a, "A")));
    EXPECT_FALSE(
        engine.attachBody(pts.key(b), hit.report, bodyFor(b, "B")));

    ASSERT_TRUE(engine.tryCached(pts.key(b), hit));
    ASSERT_NE(hit.body, nullptr);
    EXPECT_EQ(hit.body->plan, a);
    EXPECT_EQ(hit.body->bytes, "A");
    // Attaching touches no counter: two probes, two hits.
    EXPECT_EQ(engine.counters().lifetime.cacheHits, 2);
}

TEST(EvalEngine, FailedReportsNeverGetStoredBodies)
{
    DlrmPoints pts;
    ParallelPlan a = pts.plan(Strategy::TP);
    EvalEngineOptions eo;
    eo.jobs = 1;
    EvalEngine engine(eo);
    PerfReport failed;
    {
        FaultScope scope("engine.eval=throw@nth:1");
        failed = engine.evaluateOne(pts.model, pts.dlrm, pts.task, a);
    }
    ASSERT_TRUE(failed.failed());

    // No entry, so nothing for a body to attach to.
    MemoEntry hit;
    EXPECT_FALSE(engine.tryCached(pts.key(a), hit));
    auto report = std::make_shared<const PerfReport>(failed);
    EXPECT_FALSE(engine.attachBody(pts.key(a), report, bodyFor(a, "A")));
    EngineCounters c = engine.counters();
    EXPECT_EQ(c.cacheEntries, 0u);
    EXPECT_EQ(c.cacheInsertions, 0);
    EXPECT_EQ(c.lifetime.cacheHits, 0);
}

} // namespace madmax
