/**
 * @file
 * Search-algorithm tests: coordinate descent vs exhaustive search,
 * plus a cross-product property battery asserting performance-model
 * invariants over every (model x task x strategy) combination the
 * explorer can produce.
 */

#include <gtest/gtest.h>

#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"

namespace madmax
{

/** The best valid point runSearch(@p strategy) finds on @p model. */
struct SearchBest
{
    PerfReport report;
    EvalStats stats;
};

SearchBest
searchBest(const std::string &strategy, const PerfModel &model,
           const ModelDesc &desc, EvalEngine &engine)
{
    TaskSpec task = TaskSpec::preTraining();
    SearchOutcome outcome =
        runSearch(strategy, makeSearchSpace({&model}, desc, task), engine);
    const SearchCandidate *winner = bestCandidate(outcome.evaluated);
    if (!winner) {
        ADD_FAILURE() << strategy << " found no valid plan for "
                      << desc.name;
        return {};
    }
    return {winner->report, outcome.stats};
}

TEST(CoordinateDescent, MatchesExhaustiveOnDlrmA)
{
    PerfModel model(hw_zoo::dlrmTrainingSystem());
    EvalEngine engine;

    SearchBest exhaustive =
        searchBest("exhaustive", model, model_zoo::dlrmA(), engine);
    long exhaustive_evals = exhaustive.stats.requests();

    SearchBest greedy = searchBest("coordinate-descent", model,
                                   model_zoo::dlrmA(), engine);
    long greedy_evals = greedy.stats.requests();

    // Same optimum on this workload, found with fewer evaluations
    // than the full product would eventually need on larger spaces.
    EXPECT_NEAR(greedy.report.throughput() /
                    exhaustive.report.throughput(),
                1.0, 1e-6);
    EXPECT_GT(exhaustive_evals, 0);
    EXPECT_GT(greedy_evals, 0);
}

TEST(CoordinateDescent, NearOptimalAcrossSuite)
{
    // Greedy search reaches >= 95% of the exhaustive optimum for
    // every Table II model (in practice it matches exactly).
    for (const ModelDesc &m : model_zoo::tableIISuite()) {
        ClusterSpec cluster = m.isRecommendation
            ? hw_zoo::dlrmTrainingSystem()
            : hw_zoo::llmTrainingSystem();
        PerfModel model(cluster);
        EvalEngine engine;
        double exhaustive = searchBest("exhaustive", model, m, engine)
                                .report.throughput();
        double greedy = searchBest("coordinate-descent", model, m, engine)
                            .report.throughput();
        EXPECT_GE(greedy, 0.95 * exhaustive) << m.name;
        EXPECT_LE(greedy, exhaustive + 1e-6) << m.name;
    }
}

TEST(CoordinateDescent, FewerEvaluationsOnLargeSpaces)
{
    // LLM-MoE spans 8 x 8 x 5 x 2 = 640 exhaustive plans; greedy
    // sweeps a fraction of that.
    PerfModel model(hw_zoo::llmTrainingSystem());
    EvalEngine engine;
    ModelDesc m = model_zoo::llmMoe();

    long exhaustive_evals =
        searchBest("exhaustive", model, m, engine).stats.requests();
    long greedy_evals = searchBest("coordinate-descent", model, m, engine)
                            .stats.requests();

    EXPECT_LT(greedy_evals, exhaustive_evals / 2);
}

TEST(CoordinateDescent, SupportsUnconstrainedSearch)
{
    PerfModelOptions opts;
    opts.ignoreMemory = true;
    PerfModel model(hw_zoo::dlrmTrainingSystem(), opts);
    EvalEngine engine;
    SearchBest r = searchBest("coordinate-descent", model,
                              model_zoo::dlrmA(), engine);
    EXPECT_TRUE(r.report.valid);
    EXPECT_GT(r.report.throughput(), 0.0);
}

// --- Cross-product property battery -----------------------------------

struct PropertyCase
{
    size_t modelIdx;
    TaskKind task;
};

class PerfModelProperties
    : public ::testing::TestWithParam<std::tuple<size_t, int>>
{
};

TEST_P(PerfModelProperties, InvariantsHoldAcrossStrategySpace)
{
    auto [model_idx, task_idx] = GetParam();
    std::vector<ModelDesc> suite = model_zoo::tableIISuite();
    const ModelDesc &m = suite[model_idx];
    const TaskSpec tasks[] = {TaskSpec::preTraining(),
                              TaskSpec::inference(),
                              TaskSpec::fineTuning(
                                  FineTuneScope::DenseOnly)};
    const TaskSpec &task = tasks[task_idx];

    ClusterSpec cluster = m.isRecommendation
        ? hw_zoo::dlrmTrainingSystem()
        : hw_zoo::llmTrainingSystem();
    PerfModelOptions opts;
    opts.keepTimeline = false;
    PerfModel model(cluster, opts);
    StrategyExplorer explorer(model);

    for (const ExplorationResult &r :
         explorer.explore(m, task).results) {
        const PerfReport &rep = r.report;
        if (!rep.valid) {
            EXPECT_FALSE(rep.memory.fits()) << r.plan.toString();
            continue;
        }
        // Time accounting invariants (relative tolerances: fully-
        // exposed plans have makespan == serialized time up to
        // summation order).
        const double rel = 1.0 + 1e-9;
        EXPECT_GT(rep.iterationTime, 0.0) << r.plan.toString();
        EXPECT_LE(rep.iterationTime, rep.serializedTime * rel)
            << r.plan.toString();
        EXPECT_GE(rep.iterationTime * rel, rep.computeTime)
            << r.plan.toString();
        EXPECT_NEAR(rep.serializedTime, rep.computeTime + rep.commTime,
                    rep.serializedTime * 1e-9)
            << r.plan.toString();
        EXPECT_GE(rep.exposedCommTime, -1e-9) << r.plan.toString();
        EXPECT_LE(rep.exposedCommTime, rep.commTime * rel)
            << r.plan.toString();
        // Memory invariants.
        EXPECT_GT(rep.memory.paramBytes, 0.0) << r.plan.toString();
        if (task.kind == TaskKind::Inference) {
            EXPECT_DOUBLE_EQ(rep.memory.gradBytes, 0.0)
                << r.plan.toString();
            EXPECT_DOUBLE_EQ(rep.memory.optimizerBytes, 0.0)
                << r.plan.toString();
        }
        // Breakdown consistency.
        double serialized = 0.0;
        for (const auto &[cat, secs] : rep.serializedBreakdown)
            serialized += secs;
        EXPECT_NEAR(serialized, rep.serializedTime,
                    rep.serializedTime * 1e-9)
            << r.plan.toString();
    }
}

std::string
propertyCaseName(
    const ::testing::TestParamInfo<std::tuple<size_t, int>> &info)
{
    static const char *tasks[] = {"pretrain", "inference", "finetune"};
    std::string name =
        model_zoo::tableIISuite()[std::get<0>(info.param)].name;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name + "_" + tasks[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    SuiteByTask, PerfModelProperties,
    ::testing::Combine(::testing::Range<size_t>(0, 10),
                       ::testing::Range(0, 3)),
    propertyCaseName);

} // namespace madmax
