/**
 * @file
 * runSearch contract tests: registry round-trips, exhaustive
 * parity with explore(), canonical enumeration order, hard evaluation
 * budgets, seeded determinism, and warm-start behavior — everything
 * the ParetoEngine and StrategyExplorer::best() rely on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "dse/search_strategy.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/layer.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

/** A two-point joint space (ZionEX at 8 and 16 nodes) over DLRM-A. */
struct JointFixture
{
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    PerfModel small;
    PerfModel large;
    SearchSpace space;

    JointFixture()
        : small(hw_zoo::dlrmTrainingSystem().withNumNodes(8)),
          large(hw_zoo::dlrmTrainingSystem())
    {
        space = makeSearchSpace({&small, &large}, desc, task);
    }
};

/**
 * A three-point joint space (ZionEX at 4, 8 and 16 nodes) over
 * DLRM-A-MoE with a dense embedding and an attention layer appended,
 * so all five layer classes are present: the widest plan key the
 * guided searches' visited sets ever index.
 */
struct FiveClassFixture
{
    ModelDesc desc = model_zoo::dlrmAMoe();
    TaskSpec task = TaskSpec::preTraining();
    PerfModel four;
    PerfModel eight;
    PerfModel sixteen;
    SearchSpace space;

    FiveClassFixture()
        : four(hw_zoo::dlrmTrainingSystem().withNumNodes(4)),
          eight(hw_zoo::dlrmTrainingSystem().withNumNodes(8)),
          sixteen(hw_zoo::dlrmTrainingSystem())
    {
        int tok = desc.graph.addLayer(std::make_unique<TokenEmbeddingLayer>(
            "Dense_EMB", 4096, 256, 16.0, 1));
        desc.graph.addLayer(std::make_unique<AttentionLayer>(
                                "Attn", LayerClass::Transformer, 256, 8, 16),
                            {tok});
        space = makeSearchSpace({&four, &eight, &sixteen}, desc, task);
    }
};

/** Visit-order fingerprint: (hwIndex, plan, prefetch) per candidate. */
std::vector<std::string>
visitTrace(const SearchOutcome &outcome)
{
    std::vector<std::string> trace;
    trace.reserve(outcome.evaluated.size());
    for (const SearchCandidate &c : outcome.evaluated) {
        trace.push_back(std::to_string(c.hwIndex) + '|' +
                        c.plan.toString() +
                        (c.plan.fsdpPrefetch ? "+p" : "-p"));
    }
    return trace;
}

} // namespace

TEST(SearchStrategyRegistry, NamesRoundTripThroughRunSearch)
{
    ASSERT_EQ(searchStrategyNames().size(), 4u);
    JointFixture fx;
    for (const std::string &name : searchStrategyNames()) {
        EXPECT_NO_THROW(checkSearchStrategy(name)) << name;
        EvalEngine engine;
        SearchOutcome outcome = runSearch(name, fx.space, engine);
        EXPECT_FALSE(outcome.evaluated.empty()) << name;
        EXPECT_GT(outcome.stats.evaluations + outcome.stats.pruned, 0)
            << name;
    }
}

TEST(SearchStrategyRegistry, UnknownNameThrowsWithKnownList)
{
    JointFixture fx;
    EvalEngine engine;
    for (int viaRun = 0; viaRun < 2; ++viaRun) {
        try {
            if (viaRun)
                runSearch("gradient-descent", fx.space, engine);
            else
                checkSearchStrategy("gradient-descent");
            FAIL() << "expected ConfigError";
        } catch (const ConfigError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "unknown search strategy 'gradient-descent' "
                      "(registered: exhaustive, coordinate-descent, "
                      "annealing, genetic)");
        }
    }
    EXPECT_EQ(engine.counters().batches, 0);
}

TEST(SearchSpaceTest, MakeSearchSpaceFindsPresentClasses)
{
    PerfModel model(hw_zoo::llmTrainingSystem());
    ModelDesc gpt3 = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();
    SearchSpace space = makeSearchSpace({&model}, gpt3, task);
    ASSERT_EQ(space.models.size(), 1u);
    ASSERT_EQ(space.classes.size(), space.candidates.size());
    size_t product = 1;
    for (const auto &cands : space.candidates)
        product *= cands.size();
    EXPECT_EQ(space.planCount(), product);
    EXPECT_EQ(space.size(), product);
}

TEST(SearchSpaceTest, ValidateRejectsBrokenSpaces)
{
    SearchSpace empty;
    EXPECT_THROW(empty.validate(), ConfigError);

    JointFixture fx;
    SearchSpace bad = fx.space;
    bad.candidates.pop_back();
    EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(EnumeratePlans, CanonicalOrderAndPrefetchVariants)
{
    JointFixture fx;
    std::vector<ParallelPlan> plans = enumeratePlans(fx.space);
    ASSERT_EQ(plans.size(), fx.space.planCount());
    // First plan: every class at its first candidate, prefetch on.
    for (size_t ci = 0; ci < fx.space.classes.size(); ++ci) {
        EXPECT_EQ(plans[0].strategyFor(fx.space.classes[ci]),
                  fx.space.candidates[ci][0]);
    }
    EXPECT_TRUE(plans[0].fsdpPrefetch);

    SearchSpace withPrefetch = fx.space;
    withPrefetch.explorePrefetch = true;
    std::vector<ParallelPlan> expanded = enumeratePlans(withPrefetch);
    EXPECT_GT(expanded.size(), plans.size());
    // The appended variants are prefetch-off copies of FSDP plans.
    for (size_t i = plans.size(); i < expanded.size(); ++i)
        EXPECT_FALSE(expanded[i].fsdpPrefetch);
}

TEST(ExhaustiveSearch, MatchesExploreReportsAndStats)
{
    JointFixture fx;
    SearchSpace single = makeSearchSpace({&fx.large}, fx.desc, fx.task);

    EvalEngine engineA;
    SearchOutcome outcome = runSearch("exhaustive", single, engineA);

    EvalEngine engineB;
    StrategyExplorer explorer(fx.large, &engineB);
    Exploration exploration = explorer.explore(fx.desc, fx.task);

    ASSERT_EQ(outcome.evaluated.size(), exploration.results.size());
    EXPECT_EQ(outcome.stats.evaluations, exploration.stats.evaluations);
    EXPECT_EQ(outcome.stats.pruned, exploration.stats.pruned);
    EXPECT_EQ(outcome.stats.cacheHits, exploration.stats.cacheHits);

    // Same best point, bitwise.
    const SearchCandidate *best = bestCandidate(outcome.evaluated);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->report.throughput(),
              exploration.results[0].report.throughput());
    EXPECT_EQ(best->plan.toString(),
              exploration.results[0].plan.toString());
}

TEST(ExhaustiveSearch, CoversTheFullJointSpace)
{
    JointFixture fx;
    EvalEngine engine;
    SearchOutcome outcome = runSearch("exhaustive", fx.space, engine);
    EXPECT_EQ(outcome.evaluated.size(), fx.space.size());
    // Hardware-major order: the first planCount() visits are hw 0.
    for (size_t i = 0; i < fx.space.planCount(); ++i)
        EXPECT_EQ(outcome.evaluated[i].hwIndex, 0u);
    EXPECT_EQ(outcome.evaluated.back().hwIndex, 1u);
}

TEST(GuidedSearch, BudgetIsAHardCeiling)
{
    JointFixture fx;
    for (const char *name : {"annealing", "genetic",
                             "coordinate-descent"}) {
        EvalEngine engine;
        SearchOptions opts;
        opts.maxEvaluations = 7;
        SearchOutcome outcome =
            runSearch(name, fx.space, engine, opts);
        EXPECT_LE(outcome.stats.evaluations, 7) << name;
    }
}

TEST(GuidedSearch, NegativeBudgetEvaluatesNothing)
{
    JointFixture fx;
    for (const char *name : {"annealing", "genetic"}) {
        EvalEngine engine;
        SearchOptions opts;
        opts.maxEvaluations = -1;
        SearchOutcome outcome =
            runSearch(name, fx.space, engine, opts);
        EXPECT_EQ(outcome.stats.evaluations, 0) << name;
        EXPECT_TRUE(outcome.evaluated.empty()) << name;
    }
}

TEST(GuidedSearch, SameSeedSameOutcome)
{
    JointFixture fx;
    for (const char *name : {"annealing", "genetic"}) {
        SearchOptions opts;
        opts.seed = 42;
        EvalEngine engineA, engineB;
        SearchOutcome a =
            runSearch(name, fx.space, engineA, opts);
        SearchOutcome b =
            runSearch(name, fx.space, engineB, opts);
        EXPECT_EQ(visitTrace(a), visitTrace(b)) << name;
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations) << name;
    }
}

TEST(GuidedSearch, WarmStartPinsTheSeedHardwarePoint)
{
    JointFixture fx;

    // Pretend hardware point 0 (the small system) won the baseline
    // sweep; the guided searches must start there instead of on the
    // capability-ranked larger one. (A synthetic report suffices —
    // strategies only read hwIndex, validity, and throughput.)
    SearchSpace warm = fx.space;
    PerfReport seeded;
    seeded.valid = true;
    seeded.globalBatchSize = 1000;
    seeded.iterationTime = 1.0;
    warm.warmStart.push_back(
        SearchCandidate{0, ParallelPlan::fsdpBaseline(), seeded});

    for (const char *name : {"annealing", "genetic",
                             "coordinate-descent"}) {
        EvalEngine engine;
        SearchOutcome outcome =
            runSearch(name, warm, engine);
        ASSERT_FALSE(outcome.evaluated.empty()) << name;
        EXPECT_EQ(outcome.evaluated[0].hwIndex, 0u) << name;
    }
}

TEST(GuidedSearch, FindsTheJointOptimumOnThisSpace)
{
    // Both budgeted searches reach the exhaustive optimum of the
    // two-point joint space (deterministic seeds; the space is small
    // enough that anything less indicates a search bug).
    JointFixture fx;
    EvalEngine exhaustiveEngine;
    SearchOutcome exhaustive =
        runSearch("exhaustive", fx.space, exhaustiveEngine);
    const SearchCandidate *best = bestCandidate(exhaustive.evaluated);
    ASSERT_NE(best, nullptr);

    for (const char *name : {"coordinate-descent", "annealing",
                             "genetic"}) {
        EvalEngine engine;
        SearchOutcome outcome = runSearch(name, fx.space, engine);
        const SearchCandidate *found = bestCandidate(outcome.evaluated);
        ASSERT_NE(found, nullptr) << name;
        EXPECT_GE(found->report.throughput(),
                  0.95 * best->report.throughput())
            << name;
        // <= rather than <: this joint space is so heavily OOM-pruned
        // that exhaustive itself needs only a handful of evaluations.
        EXPECT_LE(outcome.stats.evaluations,
                  exhaustive.stats.evaluations)
            << name;
    }
}

TEST(BestCandidateTest, FirstWinsTiesAndInvalidLoses)
{
    SearchOutcome outcome;
    SearchCandidate a;
    a.hwIndex = 0;
    a.report.valid = false;
    outcome.evaluated.push_back(a);
    EXPECT_EQ(bestCandidate(outcome.evaluated), nullptr);

    SearchCandidate b;
    b.hwIndex = 1;
    b.report.valid = true;
    b.report.iterationTime = 1.0;
    b.report.globalBatchSize = 100;
    outcome.evaluated.push_back(b);
    SearchCandidate c = b;
    c.hwIndex = 2;
    outcome.evaluated.push_back(c);
    const SearchCandidate *best = bestCandidate(outcome.evaluated);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->hwIndex, 1u); // Equal throughput: first wins.
    // A suffix scan starts at its first index.
    best = bestCandidate(outcome.evaluated, 2);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->hwIndex, 2u);
    EXPECT_EQ(bestCandidate(outcome.evaluated, 3), nullptr);
}

/** FNV-1a over the visit trace, one line per visit. */
uint64_t
traceDigest(const std::vector<std::string> &trace)
{
    uint64_t h = 1469598103934665603ull;
    for (const std::string &visit : trace) {
        for (char ch : visit + '\n')
            h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
    return h;
}

TEST(GuidedSearch, VisitOrderIsPinned)
{
    // Generated from the string-keyed tabu and visited sets: the
    // integer point keys that replaced them must not change a single
    // proposal.
    const std::map<std::string, std::vector<std::string>> expected = {
        {"annealing", {
        "1|sparse-embedding=(MP) base-dense=(FSDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(FSDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(FSDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(TP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(DDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(TP, FSDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(TP, FSDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(TP, FSDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(DDP, TP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(DDP, FSDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(TP, DDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(TP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(TP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(FSDP, DDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(FSDP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(FSDP, DDP) +prefetch+p",
        }},
        {"genetic", {
        "1|sparse-embedding=(MP) base-dense=(FSDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(FSDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(FSDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(DDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(TP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(TP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(DDP, TP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(TP, FSDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(FSDP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP) base-dense=(DDP, FSDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(FSDP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(FSDP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(TP, DDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(TP, FSDP) +prefetch+p",
        "0|sparse-embedding=(MP, DDP) base-dense=(FSDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(DDP, TP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(TP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(FSDP) +prefetch+p",
        "0|sparse-embedding=(MP, DDP) base-dense=(FSDP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(TP, FSDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(TP, DDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(DDP, FSDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(DDP, FSDP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(DDP) +prefetch+p",
        "1|sparse-embedding=(MP, DDP) base-dense=(TP) +prefetch+p",
        "0|sparse-embedding=(MP) base-dense=(DDP, TP) +prefetch+p",
        }},
    };
    JointFixture fx;
    SearchOptions opts;
    opts.seed = 42;
    for (const auto &[name, trace] : expected) {
        EvalEngine engine;
        EXPECT_EQ(visitTrace(runSearch(name, fx.space, engine, opts)),
                  trace)
            << name;
    }
}

TEST(GuidedSearch, FiveClassSpaceVisitsEachPointOnce)
{
    FiveClassFixture fx;
    ASSERT_EQ(fx.space.classes.size(), 5u);
    SearchOptions opts;
    opts.seed = 42;
    opts.maxEvaluations = 96;

    // Genetic's seed phase sweeps each class around the previous
    // classes' winners, so each sweep re-reads one point of the sweep
    // before it (a memo hit). Every later visit goes through the
    // visited set and must be fresh.
    size_t geneticSeedSweep = 0;
    for (const std::vector<HierStrategy> &cands : fx.space.candidates)
        geneticSeedSweep += cands.size();
    // Visit counts and trace digests, generated from the string-keyed
    // sets like VisitOrderIsPinned.
    struct Expected
    {
        const char *name;
        size_t visits;
        size_t checkedFrom;
        uint64_t digest;
    };
    for (const Expected &e :
         {Expected{"annealing", 88, 0, 0xb74c53e34c71f176ull},
          Expected{"genetic", 130, geneticSeedSweep,
                   0xd110bd94be12ca46ull}}) {
        EvalEngine engine;
        std::vector<std::string> trace =
            visitTrace(runSearch(e.name, fx.space, engine, opts));
        EXPECT_EQ(trace.size(), e.visits) << e.name;
        EXPECT_EQ(traceDigest(trace), e.digest) << e.name;
        std::set<std::string> earlier(trace.begin(),
                                      trace.begin() + e.checkedFrom);
        for (size_t i = e.checkedFrom; i < trace.size(); ++i)
            EXPECT_TRUE(earlier.insert(trace[i]).second)
                << e.name << " revisits " << trace[i];
    }
}

} // namespace madmax
