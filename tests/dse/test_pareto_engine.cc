/**
 * @file
 * ParetoEngine tests: the multi-objective frontier contract (every
 * returned point non-dominated, exhaustive ⊇ guided), the
 * cost-to-quality acceptance bar for the guided searches (>= 95% of
 * the exhaustive optimum at <= 25% of its evaluations on GPT-3
 * pre-training), consumer parity (bestPerHw == StrategyExplorer::
 * best), determinism across engine thread counts, and golden JSON
 * snapshots of the `madmax pareto --format json` / `/v1/pareto`
 * rendering. The Fig. 1 table itself is pinned by
 * tests/bench/test_paper_outputs.cc.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "../golden_check.hh"
#include "dse/pareto.hh"
#include "dse/pareto_engine.hh"
#include "dse/strategy_explorer.hh"
#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

namespace
{

using testing::checkGolden;

/** The Fig. 1 configuration: DLRM-A pre-training over the cloud
 *  instance catalog. */
struct CloudConfig
{
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    std::vector<HardwarePoint> hw = cloudHardwareCatalog(16);
};

/** GPT-3 pre-training over a node-count sweep of the LLM training
 *  system — the acceptance-criteria joint space. */
struct Gpt3Config
{
    ModelDesc desc = model_zoo::gpt3();
    TaskSpec task = TaskSpec::preTraining();
    std::vector<HardwarePoint> hw = nodeCountSweep(
        hw_zoo::llmTrainingSystem(), {16, 32, 48, 64, 96, 128, 192, 256});
};

ParetoPointNd
objectivesOf(const ParetoCandidate &c)
{
    return ParetoPointNd{{c.objectives.throughput,
                          c.objectives.perfPerTco,
                          c.objectives.memHeadroomBytes},
                        0};
}

double
bestThroughput(const ParetoFrontier &frontier)
{
    double best = 0.0;
    for (const ParetoCandidate &c : frontier.points)
        best = std::max(best, c.objectives.throughput);
    return best;
}

std::string
objectiveKey(const ParetoCandidate &c)
{
    return strfmt("%.17g|%.17g|%.17g", c.objectives.throughput,
                  c.objectives.perfPerTco,
                  c.objectives.memHeadroomBytes);
}

} // namespace

TEST(ParetoEngineTest, RejectsEmptyCatalogAndBadSweeps)
{
    EXPECT_THROW(ParetoEngine({}), ConfigError);
    EXPECT_THROW(nodeCountSweep(hw_zoo::dlrmTrainingSystem(), {}),
                 ConfigError);
    EXPECT_THROW(nodeCountSweep(hw_zoo::dlrmTrainingSystem(), {0}),
                 ConfigError);
}

TEST(ParetoEngineTest, UnknownStrategyThrows)
{
    CloudConfig cfg;
    ParetoEngine engine(cfg.hw);
    ParetoOptions opts;
    opts.strategy = "brute-force";
    EXPECT_THROW(engine.explore(cfg.desc, cfg.task, opts), ConfigError);
}

TEST(ParetoEngineTest, UnknownStrategyCostsNoEvaluation)
{
    // The name is resolved before the baseline sweep: a rejected
    // request leaves the shared engine exactly as it found it.
    EvalEngine engine;
    ParetoEngine pareto(cloudHardwareCatalog(128), &engine);
    ModelDesc desc = model_zoo::llama65b();
    ParetoOptions opts;
    opts.strategy = "bogus";
    const EngineCounters before = engine.counters();
    EXPECT_THROW(pareto.explore(desc, TaskSpec::preTraining(), opts),
                 ConfigError);
    const EngineCounters after = engine.counters();
    EXPECT_EQ(after.lifetime.evaluations, before.lifetime.evaluations);
    EXPECT_EQ(after.lifetime.pruned, before.lifetime.pruned);
    EXPECT_EQ(after.batches, before.batches);
    EXPECT_EQ(after.cacheInsertions, before.cacheInsertions);
    EXPECT_EQ(after.cacheEntries, before.cacheEntries);
}

// The frontier contract: every point any strategy returns is
// non-dominated among everything that strategy visited, and the
// frontier carries no duplicate objective vectors (ISSUE 5 property
// test, DLRM-A and GPT-3 configs).
template <typename Config>
void
frontierIsNonDominated()
{
    Config cfg;
    for (const std::string &name : searchStrategyNames()) {
        ParetoEngine engine(cfg.hw);
        ParetoOptions opts;
        opts.strategy = name;
        ParetoFrontier f = engine.explore(cfg.desc, cfg.task, opts);
        ASSERT_FALSE(f.points.empty()) << name;

        std::set<std::string> seen;
        for (const ParetoCandidate &p : f.points) {
            EXPECT_TRUE(p.report.valid) << name;
            EXPECT_TRUE(seen.insert(objectiveKey(p)).second)
                << name << ": duplicate frontier objectives";
            for (const ParetoCandidate &other : f.candidates) {
                if (!other.report.valid)
                    continue;
                EXPECT_FALSE(
                    dominates(objectivesOf(other), objectivesOf(p)))
                    << name << ": frontier point dominated by "
                    << other.plan.toString() << " on hw "
                    << other.hwIndex;
            }
        }
    }
}

TEST(ParetoFrontierProperty, NonDominatedOnDlrmACloud)
{
    frontierIsNonDominated<CloudConfig>();
}

TEST(ParetoFrontierProperty, NonDominatedOnGpt3NodeSweep)
{
    frontierIsNonDominated<Gpt3Config>();
}

// Exhaustive's output is a superset of every guided strategy's
// frontier, in the two senses that are structurally guaranteed:
// (1) every guided frontier point exists among exhaustive's visited
// candidates with bitwise-identical objectives (guided searches only
// ever visit points of the same joint space through the same
// evaluation path), and (2) the exhaustive frontier *covers* each
// guided frontier point — the point is either on it, or dominated by
// one of its points (exhaustive's frontier is the true frontier of
// the whole space, so adding guided visits cannot extend it).
template <typename Config>
void
exhaustiveIsSuperset()
{
    Config cfg;
    ParetoEngine exhaustive(cfg.hw);
    ParetoFrontier full = exhaustive.explore(cfg.desc, cfg.task);
    std::set<std::string> fullCandidateKeys;
    for (const ParetoCandidate &p : full.candidates) {
        if (p.report.valid)
            fullCandidateKeys.insert(objectiveKey(p));
    }
    std::set<std::string> fullFrontierKeys;
    for (const ParetoCandidate &p : full.points)
        fullFrontierKeys.insert(objectiveKey(p));

    for (const std::string &name : searchStrategyNames()) {
        if (name == "exhaustive")
            continue;
        ParetoEngine engine(cfg.hw);
        ParetoOptions opts;
        opts.strategy = name;
        ParetoFrontier guided =
            engine.explore(cfg.desc, cfg.task, opts);
        for (const ParetoCandidate &p : guided.points) {
            EXPECT_TRUE(fullCandidateKeys.count(objectiveKey(p)))
                << name << ": frontier point " << p.plan.toString()
                << " on hw " << p.hwIndex
                << " was never visited by exhaustive search";
            bool covered = fullFrontierKeys.count(objectiveKey(p)) > 0;
            for (const ParetoCandidate &f : full.points) {
                if (covered)
                    break;
                covered = dominates(objectivesOf(f), objectivesOf(p));
            }
            EXPECT_TRUE(covered)
                << name << ": frontier point " << p.plan.toString()
                << " on hw " << p.hwIndex
                << " is neither on nor dominated by the exhaustive "
                   "frontier";
        }
    }
}

TEST(ParetoFrontierProperty, ExhaustiveSupersetOnDlrmACloud)
{
    exhaustiveIsSuperset<CloudConfig>();
}

TEST(ParetoFrontierProperty, ExhaustiveSupersetOnGpt3NodeSweep)
{
    exhaustiveIsSuperset<Gpt3Config>();
}

// ISSUE 5 acceptance: on GPT-3 pre-training, annealing and genetic
// each reach >= 95% of the exhaustive frontier's best throughput
// point using <= 25% of its EvalStats.evaluations.
TEST(ParetoAcceptance, GuidedReach95PercentAt25PercentCostOnGpt3)
{
    Gpt3Config cfg;
    ParetoEngine exhaustive(cfg.hw);
    ParetoFrontier full = exhaustive.explore(cfg.desc, cfg.task);
    const long fullEvals = full.stats.evaluations;
    const double fullBest = bestThroughput(full);
    ASSERT_GT(fullEvals, 0);
    ASSERT_GT(fullBest, 0.0);

    for (const char *name : {"annealing", "genetic"}) {
        ParetoEngine engine(cfg.hw);
        ParetoOptions opts;
        opts.strategy = name;
        opts.search.maxEvaluations = fullEvals / 4;
        ParetoFrontier guided =
            engine.explore(cfg.desc, cfg.task, opts);
        EXPECT_LE(guided.stats.evaluations, fullEvals / 4) << name;
        EXPECT_GE(bestThroughput(guided), 0.95 * fullBest) << name;
    }
}

// The same bar on the Fig. 1 joint space. Genetic meets the 95%
// criterion here too; annealing gets a looser bound on this heavily
// OOM-pruned space (50 of 96 joint points are infeasible), where a
// quarter-budget random walk cannot reliably cross between the few
// feasible basins.
TEST(ParetoAcceptance, GuidedQualityOnDlrmACloud)
{
    CloudConfig cfg;
    ParetoEngine exhaustive(cfg.hw);
    ParetoFrontier full = exhaustive.explore(cfg.desc, cfg.task);
    const long fullEvals = full.stats.evaluations;
    const double fullBest = bestThroughput(full);

    ParetoEngine genetic(cfg.hw);
    ParetoOptions gopts;
    gopts.strategy = "genetic";
    gopts.search.maxEvaluations = fullEvals / 4;
    ParetoFrontier g = genetic.explore(cfg.desc, cfg.task, gopts);
    EXPECT_LE(g.stats.evaluations, fullEvals / 4);
    EXPECT_GE(bestThroughput(g), 0.95 * fullBest);

    ParetoEngine annealing(cfg.hw);
    ParetoOptions aopts;
    aopts.strategy = "annealing";
    aopts.search.maxEvaluations = fullEvals / 4;
    ParetoFrontier a = annealing.explore(cfg.desc, cfg.task, aopts);
    EXPECT_LE(a.stats.evaluations, fullEvals / 4);
    EXPECT_GE(bestThroughput(a), 0.75 * fullBest);
}

TEST(ParetoEngineTest, BudgetCeilingCoversBaselines)
{
    CloudConfig cfg;
    for (const char *name : {"annealing", "genetic"}) {
        ParetoEngine engine(cfg.hw);
        ParetoOptions opts;
        opts.strategy = name;
        opts.search.maxEvaluations = 4; // Below the 6-point catalog.
        ParetoFrontier f = engine.explore(cfg.desc, cfg.task, opts);
        EXPECT_LE(f.stats.evaluations, 4) << name;
        EXPECT_LE(f.baselines.size(), 4u) << name;
    }
}

TEST(ParetoEngineTest, BestPerHwMatchesStrategyExplorer)
{
    CloudConfig cfg;
    EvalEngine shared;
    ParetoEngine engine(cfg.hw, &shared);
    ParetoFrontier f = engine.explore(cfg.desc, cfg.task);

    std::set<size_t> covered;
    for (const ParetoCandidate &c : f.bestPerHw)
        covered.insert(c.hwIndex);

    for (size_t hw = 0; hw < cfg.hw.size(); ++hw) {
        PerfModel model(cfg.hw[hw].cluster);
        StrategyExplorer explorer(model);
        PerfReport baseline = explorer.baseline(cfg.desc, cfg.task);
        ASSERT_LT(hw, f.baselines.size());
        EXPECT_EQ(f.baselines[hw].report.valid, baseline.valid);
        EXPECT_EQ(f.baselines[hw].report.throughput(),
                  baseline.throughput());
        try {
            ExplorationResult best = explorer.best(cfg.desc, cfg.task);
            ASSERT_TRUE(covered.count(hw));
            for (const ParetoCandidate &c : f.bestPerHw) {
                if (c.hwIndex != hw)
                    continue;
                EXPECT_EQ(c.report.throughput(),
                          best.report.throughput());
                EXPECT_EQ(c.plan.toString(), best.plan.toString());
            }
        } catch (const ConfigError &) {
            EXPECT_FALSE(covered.count(hw));
        }
    }
}

TEST(ParetoEngineTest, DeterministicAcrossEngineThreadCounts)
{
    CloudConfig cfg;
    auto run = [&](int jobs) {
        EvalEngineOptions eo;
        eo.jobs = jobs;
        EvalEngine shared(eo);
        ParetoEngine engine(cfg.hw, &shared);
        ParetoFrontier f = engine.explore(cfg.desc, cfg.task);
        std::string dump;
        for (const ParetoCandidate &c : f.points) {
            dump += std::to_string(c.hwIndex) + '|' +
                c.plan.toString() + '|' + objectiveKey(c) + '\n';
        }
        return dump;
    };
    EXPECT_EQ(run(1), run(4));
}

TEST(ParetoEngineTest, ScoreObjectivesUsesTheCostModel)
{
    CloudConfig cfg;
    PerfReport report;
    report.valid = true;
    report.globalBatchSize = 1000;
    report.iterationTime = 0.5;
    report.memory.usableCapacity = 10.0;
    report.memory.paramBytes = 4.0;

    ParetoObjectives obj = scoreObjectives(report, cfg.hw[0]);
    EXPECT_DOUBLE_EQ(obj.throughput, 2000.0);
    // $4.1 per A100-equivalent device-hour.
    double rate = cfg.hw[0].cluster.numDevices() *
        cfg.hw[0].a100PeakRatio * 4.1;
    EXPECT_DOUBLE_EQ(obj.perfPerTco, 2000.0 / rate);
    EXPECT_DOUBLE_EQ(obj.memHeadroomBytes, 6.0);
}

// ---- Golden snapshots ------------------------------------------------

// Full JSON rendering of the GPT-3 pre-training exploration — the
// exact body `madmax pareto --format json` and `/v1/pareto` emit for
// this configuration (wall_seconds zeroed: it is the one measured,
// non-deterministic field).
TEST(ParetoGolden, Gpt3CloudJsonSnapshot)
{
    Gpt3Config cfg;
    ParetoEngine engine(cfg.hw);
    ParetoFrontier f = engine.explore(cfg.desc, cfg.task);
    f.stats.wallSeconds = 0.0;
    checkGolden("pareto_gpt3_nodesweep.txt",
                toJson(f, engine.hardware()).dump(2) + "\n");
}

// ---------------------------------------------------------------------
// Serving-placement search over (possibly heterogeneous) clusters.

namespace
{

/** The exemplar serving scenario: LLaMA2-13B at a 2048-token prompt
 *  on the mixed H100 + A100-80GB fleet, 256 generated tokens. */
struct MixedServingConfig
{
    ModelDesc desc = model_zoo::llama2_13b(2048);
    InferenceWorkload workload;
    ClusterSpec cluster = hw_zoo::mixedInferenceFleet();
};

bool
strictlyDominates(const InferencePlacementObjectives &a,
                  const InferencePlacementObjectives &b)
{
    return a.tokensPerSecond > b.tokensPerSecond &&
        a.perfPerTco > b.perfPerTco &&
        a.maxConcurrentSequences > b.maxConcurrentSequences;
}

/** Plans one island's phase sweep evaluates (no OOM pruning on the
 *  exemplar fleet, so every plan is a fresh evaluation). */
long
phasePlanCount(const MixedServingConfig &cfg)
{
    PerfModel model(cfg.cluster.groupCluster(0));
    const TaskSpec task =
        InferenceModel::decodeTask(cfg.desc, cfg.workload);
    return static_cast<long>(
        makeSearchSpace({&model}, cfg.desc, task).planCount());
}

} // namespace

TEST(InferencePlacement, HomogeneousClusterDegeneratesToColocated)
{
    ModelDesc desc = model_zoo::llama2_7b(512);
    InferenceWorkload workload;
    ClusterSpec cluster = hw_zoo::llmTrainingSystem().withNumNodes(2);
    InferencePlacementFrontier f =
        exploreInferencePlacements(desc, workload, cluster);
    ASSERT_EQ(f.islands.size(), 1u);
    EXPECT_EQ(f.islands[0], cluster.name);
    ASSERT_EQ(f.candidates.size(), 1u);
    EXPECT_FALSE(f.candidates[0].report.disaggregated);
    ASSERT_EQ(f.points.size(), 1u);
    EXPECT_GT(f.points[0].objectives.tokensPerSecond, 0.0);
    // Colocated serving uses one plan for both phases: the weights
    // cannot reshard between a prompt pass and the next token step.
    EXPECT_EQ(f.points[0].prefillPlan.toString(),
              f.points[0].decodePlan.toString());
}

// The ISSUE acceptance bar: on the exemplar mixed-generation fleet,
// the disaggregated placement (compute-dense H100s prefill, capacity-
// dense A100s decode) strictly dominates the best homogeneous
// (colocated, single-island) placement on ALL THREE objectives.
TEST(InferencePlacement, DisaggregationDominatesOnTheMixedFleet)
{
    MixedServingConfig cfg;
    InferencePlacementFrontier f = exploreInferencePlacements(
        cfg.desc, cfg.workload, cfg.cluster);
    ASSERT_EQ(f.islands.size(), 2u);
    EXPECT_EQ(f.islands[0], "h100-pool");
    EXPECT_EQ(f.islands[1], "a100-80-pool");
    ASSERT_EQ(f.candidates.size(), 4u); // 2 islands x 2 phases.

    const InferencePlacementCandidate *winner = nullptr;
    std::vector<const InferencePlacementCandidate *> colocated;
    for (const InferencePlacementCandidate &c : f.candidates) {
        if (c.prefillIsland == 0 && c.decodeIsland == 1)
            winner = &c;
        if (c.prefillIsland == c.decodeIsland)
            colocated.push_back(&c);
    }
    ASSERT_NE(winner, nullptr);
    ASSERT_TRUE(winner->report.valid);
    EXPECT_TRUE(winner->report.disaggregated);
    ASSERT_EQ(colocated.size(), 2u);
    for (const InferencePlacementCandidate *c : colocated) {
        ASSERT_TRUE(c->report.valid);
        EXPECT_TRUE(strictlyDominates(winner->objectives,
                                      c->objectives))
            << "H100-prefill/A100-decode must strictly dominate "
               "colocated " << f.islands[static_cast<size_t>(
                   c->prefillIsland)];
    }
    // It is the unique frontier point of this scenario.
    ASSERT_EQ(f.points.size(), 1u);
    EXPECT_EQ(f.points[0].prefillIsland, 0);
    EXPECT_EQ(f.points[0].decodeIsland, 1);

    // Decode on the A100 pool (more devices -> fewer resident
    // sequences per device) beats the H100 pool's token step.
    EXPECT_LT(winner->report.tpotSeconds,
              colocated[0]->report.tpotSeconds);
}

TEST(InferencePlacement, PinsRestrictTheSearch)
{
    MixedServingConfig cfg;
    cfg.workload.prefillGroup = "h100-pool";
    cfg.workload.decodeGroup = "a100-80-pool";
    InferencePlacementFrontier f = exploreInferencePlacements(
        cfg.desc, cfg.workload, cfg.cluster);
    ASSERT_EQ(f.candidates.size(), 1u);
    EXPECT_EQ(f.candidates[0].prefillIsland, 0);
    EXPECT_EQ(f.candidates[0].decodeIsland, 1);
    EXPECT_TRUE(f.candidates[0].report.disaggregated);
    // Each phase sweeps only its pinned island.
    EXPECT_EQ(f.stats.evaluations, 2 * phasePlanCount(cfg));
}

TEST(InferencePlacement, DecodePinSweepsPrefillOnEveryIsland)
{
    MixedServingConfig cfg;
    cfg.workload.decodeGroup = "a100-80-pool";
    InferencePlacementFrontier f = exploreInferencePlacements(
        cfg.desc, cfg.workload, cfg.cluster);
    ASSERT_EQ(f.candidates.size(), 2u);
    for (const InferencePlacementCandidate &c : f.candidates)
        EXPECT_EQ(c.decodeIsland, 1);
    EXPECT_EQ(f.candidates[0].prefillIsland, 0);
    EXPECT_EQ(f.candidates[1].prefillIsland, 1);
    // Prefill sweeps both islands, decode only the pinned one.
    EXPECT_EQ(f.stats.evaluations, 3 * phasePlanCount(cfg));
}

TEST(InferencePlacement, RejectsUnknownGroupPins)
{
    MixedServingConfig cfg;
    cfg.workload.decodeGroup = "b200-pool";
    try {
        exploreInferencePlacements(cfg.desc, cfg.workload, cfg.cluster);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown device group \"b200-pool\""),
                  std::string::npos) << msg;
        // Actionable: the error lists what the cluster does define.
        EXPECT_NE(msg.find("h100-pool"), std::string::npos) << msg;
        EXPECT_NE(msg.find("a100-80-pool"), std::string::npos) << msg;
    }
}

TEST(InferencePlacement, DeterministicAcrossEngineThreadCounts)
{
    MixedServingConfig cfg;
    InferencePlacementFrontier serial = exploreInferencePlacements(
        cfg.desc, cfg.workload, cfg.cluster);
    EvalEngineOptions opts;
    opts.jobs = 4;
    EvalEngine engine(opts);
    InferencePlacementFrontier parallel = exploreInferencePlacements(
        cfg.desc, cfg.workload, cfg.cluster, {}, &engine);
    serial.stats.wallSeconds = parallel.stats.wallSeconds = 0.0;
    EXPECT_EQ(toJson(serial).dump(2), toJson(parallel).dump(2));
}

// Full JSON rendering of the exemplar placement search — the exact
// body `madmax pareto --workload ... --format json` and `/v1/pareto`
// (with a "workload" member) emit for this configuration.
TEST(ParetoGolden, MixedFleetPlacementJsonSnapshot)
{
    MixedServingConfig cfg;
    InferencePlacementFrontier f = exploreInferencePlacements(
        cfg.desc, cfg.workload, cfg.cluster);
    f.stats.wallSeconds = 0.0;
    checkGolden("pareto_llama2_mixed_placement.txt",
                toJson(f).dump(2) + "\n");
}

} // namespace madmax
