#include <gtest/gtest.h>

#include <set>

#include "../report_check.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

TEST(StrategyExplorer, CandidateSets)
{
    auto dense = StrategyExplorer::candidates(LayerClass::BaseDense);
    EXPECT_EQ(dense.size(), 8u);
    // Contains the paper's key strategies.
    auto contains = [&](HierStrategy hs) {
        for (const HierStrategy &c : dense) {
            if (c == hs)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(contains(HierStrategy{Strategy::FSDP}));
    EXPECT_TRUE(contains(HierStrategy{Strategy::DDP}));
    EXPECT_TRUE(contains(HierStrategy{Strategy::TP, Strategy::DDP}));
    EXPECT_TRUE(contains(HierStrategy{Strategy::DDP, Strategy::TP}));

    auto emb = StrategyExplorer::candidates(LayerClass::SparseEmbedding);
    for (const HierStrategy &hs : emb)
        EXPECT_EQ(hs.intra, Strategy::MP); // Sharding variants only.

    auto moe = StrategyExplorer::candidates(LayerClass::MoE);
    EXPECT_GE(moe.size(), 4u);
}

TEST(StrategyExplorer, ExploreCoversCartesianProduct)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(model);
    // DLRM-A has SparseEmbedding (2 candidates) x BaseDense (8).
    auto results = explorer.explore(model_zoo::dlrmA(),
                                    TaskSpec::preTraining()).results;
    EXPECT_EQ(results.size(), 16u);

    // All plans distinct.
    std::set<std::string> names;
    for (const auto &r : results)
        names.insert(r.plan.toString());
    EXPECT_EQ(names.size(), results.size());
}

TEST(StrategyExplorer, ResultsSortedValidFirstByThroughput)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(model);
    auto results = explorer.explore(model_zoo::dlrmA(),
                                    TaskSpec::preTraining()).results;
    bool seen_invalid = false;
    double prev = 1e300;
    for (const auto &r : results) {
        if (!r.report.valid) {
            seen_invalid = true;
            continue;
        }
        EXPECT_FALSE(seen_invalid) << "valid after invalid";
        EXPECT_LE(r.report.throughput(), prev + 1e-6);
        prev = r.report.throughput();
    }
    // DLRM-A pre-training has at least one OOM plan (DDP dense).
    EXPECT_TRUE(seen_invalid);
}

TEST(StrategyExplorer, BestBeatsBaseline)
{
    // The headline claim: tuned plans outperform the FSDP baseline.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(model);
    ExplorationResult best =
        explorer.best(model_zoo::dlrmA(), TaskSpec::preTraining());
    PerfReport baseline =
        explorer.baseline(model_zoo::dlrmA(), TaskSpec::preTraining());
    ASSERT_TRUE(best.report.valid);
    ASSERT_TRUE(baseline.valid);
    EXPECT_GE(best.report.throughput(), baseline.throughput());
}

TEST(StrategyExplorer, DlrmOptimalShardsIntraReplicatesInter)
{
    // Insight 1 / Fig. 11: the winning dense-layer strategy shards
    // within the node (TP or FSDP over NVLink) and replicates across
    // nodes (DDP over RoCE) — (TP, DDP) in the paper; our cost model
    // ranks (FSDP, DDP) within 1% of it.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(model);
    ExplorationResult best =
        explorer.best(model_zoo::dlrmA(), TaskSpec::preTraining());
    HierStrategy dense = best.plan.strategyFor(LayerClass::BaseDense);
    EXPECT_TRUE(dense.intra == Strategy::TP ||
                dense.intra == Strategy::FSDP)
        << dense.toString();
    EXPECT_EQ(dense.inter, Strategy::DDP) << dense.toString();
}

TEST(StrategyExplorer, IgnoreMemoryUnlocksFasterPlans)
{
    // Fig. 10's orange bars: unconstrained exploration can only be
    // at least as fast as the constrained optimum.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    PerfModelOptions no_memory_limit;
    no_memory_limit.ignoreMemory = true;
    PerfModel unconstrained(hw_zoo::dlrmTrainingSystem(), no_memory_limit);
    double best_c = StrategyExplorer(model)
                        .best(model_zoo::dlrmA(), TaskSpec::preTraining())
                        .report.throughput();
    double best_u = StrategyExplorer(unconstrained)
                        .best(model_zoo::dlrmA(), TaskSpec::preTraining())
                        .report.throughput();
    EXPECT_GE(best_u, best_c - 1e-6);
}

TEST(StrategyExplorer, BestIsExploreArgmax)
{
    // best() is the head of explore()'s ranking: the same plan, the
    // same report bit for bit, and the same search cost, for every
    // Table II model with and without the memory bound and the
    // prefetch variants. That head is also the exhaustive search's
    // best valid candidate (first wins ties). Each call gets a fresh
    // engine (a private one per explorer), so the costs compare.
    for (const ModelDesc &m : model_zoo::tableIISuite()) {
        ClusterSpec cluster = m.isRecommendation
            ? hw_zoo::dlrmTrainingSystem()
            : hw_zoo::llmTrainingSystem();
        for (bool ignoreMemory : {false, true}) {
            PerfModelOptions modelOpts;
            modelOpts.ignoreMemory = ignoreMemory;
            PerfModel model(cluster, modelOpts);
            for (bool explorePrefetch : {false, true}) {
                SCOPED_TRACE(m.name + (ignoreMemory ? " ignoreMemory" : "") +
                             (explorePrefetch ? " explorePrefetch" : ""));
                ExplorerOptions opts;
                opts.explorePrefetch = explorePrefetch;
                Exploration all = StrategyExplorer(model).explore(
                    m, TaskSpec::preTraining(), opts);
                ASSERT_FALSE(all.results.empty());
                const ExplorationResult &head = all.results.front();
                if (!head.report.valid) {
                    EXPECT_THROW(StrategyExplorer(model).best(
                                     m, TaskSpec::preTraining(), opts),
                                 ConfigError);
                    continue;
                }
                ExplorationResult best = StrategyExplorer(model).best(
                    m, TaskSpec::preTraining(), opts);
                EXPECT_EQ(best.plan.toString(), head.plan.toString());
                EXPECT_EQ(best.plan.fsdpPrefetch, head.plan.fsdpPrefetch);
                testing::expectBitIdentical(best.report, head.report);
                EXPECT_EQ(best.stats.evaluations, all.stats.evaluations);
                EXPECT_EQ(best.stats.cacheHits, all.stats.cacheHits);
                EXPECT_EQ(best.stats.pruned, all.stats.pruned);

                EvalEngine engine;
                SearchOutcome outcome = runSearch(
                    "exhaustive",
                    makeSearchSpace({&model}, m, TaskSpec::preTraining(),
                                    explorePrefetch),
                    engine);
                const SearchCandidate *argmax =
                    bestCandidate(outcome.evaluated);
                ASSERT_NE(argmax, nullptr);
                EXPECT_EQ(argmax->plan.toString(), best.plan.toString());
                EXPECT_EQ(argmax->plan.fsdpPrefetch, best.plan.fsdpPrefetch);
                testing::expectBitIdentical(argmax->report, best.report);
            }
        }
    }
}

TEST(StrategyExplorer, PrefetchVariantsExplored)
{
    PerfModel model(hw_zoo::llmTrainingSystem());
    StrategyExplorer explorer(model);
    ExplorerOptions opts;
    opts.explorePrefetch = true;
    auto with = explorer.explore(model_zoo::llama65b(),
                                 TaskSpec::preTraining(), opts).results;
    auto without = explorer.explore(model_zoo::llama65b(),
                                    TaskSpec::preTraining())
                       .results;
    EXPECT_GT(with.size(), without.size());
    bool any_prefetch = false;
    for (const auto &r : with)
        any_prefetch |= r.plan.fsdpPrefetch;
    EXPECT_TRUE(any_prefetch);
}

TEST(StrategyExplorer, TaskChangesOptimum)
{
    // Insight 5: inference admits strategies that pre-training
    // cannot use (e.g. DDP), so the explored space differs in
    // validity.
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(model);
    auto pre = explorer.explore(model_zoo::dlrmA(),
                                TaskSpec::preTraining()).results;
    auto inf = explorer.explore(model_zoo::dlrmA(),
                                TaskSpec::inference()).results;
    int pre_valid = 0, inf_valid = 0;
    for (const auto &r : pre)
        pre_valid += r.report.valid;
    for (const auto &r : inf)
        inf_valid += r.report.valid;
    EXPECT_GT(inf_valid, pre_valid);
}

TEST(StrategyExplorer, ImpossibleMemoryIsFatal)
{
    // A cluster whose devices cannot hold even the sharded model.
    ClusterSpec tiny = hw_zoo::dlrmTrainingSystem();
    tiny.device.hbmCapacity = 1024.0 * 1024.0; // 1 MiB.
    PerfModel model(tiny);
    StrategyExplorer explorer(model);
    EXPECT_THROW(
        explorer.best(model_zoo::dlrmA(), TaskSpec::preTraining()),
        ConfigError);
}

} // namespace madmax
