/**
 * @file
 * Differential suite pinning the collective model to the flat
 * two-scope closed forms byte-for-byte: a flat cluster, which the
 * model prices on TopologySpec::flatEquivalent, must price every
 * (kind, scope, bytes) bitwise identically to the closed forms kept
 * in tests/reference/flat_collective.hh — across the hardware zoo,
 * fixed corner sizes, and seeded randomized log-uniform sweeps — and
 * whole evaluation pipelines (explore sweeps, spliced evaluation
 * against the reference builder) must produce bit-identical
 * PerfReports when a flat-equivalent topology is attached to the
 * cluster.
 *
 * Also holds the topology golden: a GPT-3 explore sweep on the
 * dc-pod-fleet preset, snapshotted in tests/golden/ and covered by
 * CI's golden-drift step.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "../golden_check.hh"
#include "collective/collective.hh"
#include "collective/topology_model.hh"
#include "core/eval_context.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "hw/topology.hh"
#include "model/model_zoo.hh"
#include "reference/flat_collective.hh"
#include "reference/reference_builder.hh"
#include "util/strfmt.hh"

namespace madmax
{

namespace
{

const Collective kKinds[] = {
    Collective::AllReduce, Collective::AllGather,
    Collective::ReduceScatter, Collective::All2All,
    Collective::Broadcast};

const CommScope kScopes[] = {CommScope::Intra, CommScope::Inter,
                             CommScope::Global};

const AllReduceAlgorithm kAlgos[] = {AllReduceAlgorithm::Ring,
                                     AllReduceAlgorithm::Tree,
                                     AllReduceAlgorithm::Auto};

std::vector<ClusterSpec>
zooClusters()
{
    return {hw_zoo::dlrmTrainingSystem(), hw_zoo::llmTrainingSystem(),
            hw_zoo::awsP4d(16), hw_zoo::h100System()};
}

/** Corner sizes plus a seeded log-uniform sweep over ~10 decades. */
std::vector<double>
sweepSizes()
{
    std::vector<double> sizes = {0.0,    1.0,   2.0,    3.0,
                                 256.0,  4096.0, 65536.0, 1.0e6,
                                 1.5e8,  1.0e9, 7.77e9};
    std::mt19937_64 rng(0xD1FFull); // Fixed seed: reproducible sweep.
    std::uniform_real_distribution<double> u(0.0, 10.0);
    for (int i = 0; i < 500; ++i)
        sizes.push_back(std::pow(10.0, u(rng)));
    return sizes;
}

/** Bitwise equality on every non-timeline PerfReport field. */
void
expectBitIdentical(const PerfReport &a, const PerfReport &b,
                   const std::string &what)
{
    EXPECT_EQ(a.modelName, b.modelName) << what;
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
    // Timelines: identical schedule, event for event.
    ASSERT_EQ(a.timeline.events.size(), b.timeline.events.size()) << what;
    EXPECT_EQ(a.timeline.makespan, b.timeline.makespan) << what;
    for (size_t i = 0; i < a.timeline.events.size(); ++i) {
        const ScheduledEvent &ea = a.timeline.events[i];
        const ScheduledEvent &eb = b.timeline.events[i];
        EXPECT_EQ(ea.start, eb.start) << what << " event " << i;
        EXPECT_EQ(ea.finish, eb.finish) << what << " event " << i;
        EXPECT_EQ(ea.event.name, eb.event.name) << what << " event " << i;
        EXPECT_EQ(ea.event.duration, eb.event.duration)
            << what << " event " << i;
    }
}

} // namespace

// The contract that lets one model price every cluster: a flat
// cluster (priced on its flat-equivalent stack) prices every
// (kind, scope, bytes, algorithm) bitwise identical to the flat
// closed forms, across the model zoo.
TEST(TopologyDifferential, FlatEquivalentIsBitwiseIdenticalAcrossZoo)
{
    const std::vector<double> sizes = sweepSizes();
    for (const ClusterSpec &cluster : zooClusters()) {
        for (AllReduceAlgorithm algo : kAlgos) {
            reference::CollectiveModel flat(cluster, CollectiveLatency{},
                                            algo);
            TopologyCollectiveModel topo(cluster, CollectiveLatency{},
                                         algo);
            for (CommScope scope : kScopes) {
                ASSERT_EQ(flat.groupSize(scope), topo.groupSize(scope))
                    << cluster.name;
            }
            for (Collective kind : kKinds) {
                for (CommScope scope : kScopes) {
                    for (double bytes : sizes) {
                        const double want =
                            flat.time(kind, scope, bytes);
                        // EXPECT_EQ on doubles is exact — any ULP of
                        // drift between the recursion and the closed
                        // form fails here.
                        EXPECT_EQ(want, topo.time(kind, scope, bytes))
                            << cluster.name << " "
                            << toString(kind) << " " << toString(scope)
                            << " algo=" << toString(algo)
                            << strfmt(" bytes=%.17g", bytes);
                        EXPECT_EQ(want,
                                  topo.estimate(kind, scope, bytes)
                                      .seconds)
                            << "estimate() drifted from time()";
                    }
                }
            }
        }
    }
}

// Custom latency constants follow the same equivalence (the inherit
// path of TopologyLevel::linkLatency < 0).
TEST(TopologyDifferential, FlatEquivalentHonorsCustomLatency)
{
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    CollectiveLatency lat{3.3e-6, 1.1e-5};
    reference::CollectiveModel flat(cluster, lat);
    TopologyCollectiveModel topo(cluster, lat);
    for (Collective kind : kKinds) {
        for (CommScope scope : kScopes) {
            for (double bytes : {1.0, 4096.0, 1e7, 3e9}) {
                EXPECT_EQ(flat.time(kind, scope, bytes),
                          topo.time(kind, scope, bytes))
                    << toString(kind) << " " << toString(scope);
            }
        }
    }
}

// End-to-end: a full explore() sweep on a cluster carrying the
// flat-equivalent topology produces reports bit-identical to the bare
// flat cluster, rank by rank.
TEST(TopologyDifferential, ExploreSweepBitIdenticalToFlat)
{
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    ExplorerOptions opts;
    opts.explorePrefetch = true;

    ClusterSpec flat_cluster = hw_zoo::dlrmTrainingSystem();
    ClusterSpec topo_cluster = hw_zoo::withTopology(
        flat_cluster, TopologySpec::flatEquivalent(flat_cluster));

    PerfModelOptions keep;
    keep.keepTimeline = true; // Compare the schedules too.
    PerfModel flat_model(flat_cluster, keep);
    PerfModel topo_model(topo_cluster, keep);
    Exploration flat_ex =
        StrategyExplorer(flat_model).explore(desc, task, opts);
    Exploration topo_ex =
        StrategyExplorer(topo_model).explore(desc, task, opts);

    ASSERT_EQ(flat_ex.results.size(), topo_ex.results.size());
    for (size_t i = 0; i < flat_ex.results.size(); ++i) {
        expectBitIdentical(flat_ex.results[i].report,
                           topo_ex.results[i].report,
                           "rank " + std::to_string(i));
        if (::testing::Test::HasFailure())
            break;
    }
}

// Spliced evaluation prices through the context's memo and stays
// bit-identical to the reference builder, which prices every op
// afresh, on a topology-carrying cluster.
TEST(TopologyDifferential, DeltaEvalBitIdenticalOnTopologyCluster)
{
    ClusterSpec cluster = hw_zoo::withTopology(
        hw_zoo::dlrmTrainingSystem(),
        hw_zoo::dcRailTopology(hw_zoo::dlrmTrainingSystem()));
    PerfModelOptions opts;
    opts.keepTimeline = true;
    PerfModel model(cluster, opts);
    ModelDesc desc = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();
    EvalContext ctx(model, desc, task);
    EXPECT_EQ(ctx.collectives().spec().fingerprint(),
              cluster.topology->fingerprint());

    std::vector<ParallelPlan> plans;
    {
        ParallelPlan p;
        p.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
        p.set(LayerClass::BaseDense,
              HierStrategy{Strategy::TP, Strategy::DDP});
        plans.push_back(p);
        p.set(LayerClass::BaseDense,
              HierStrategy{Strategy::FSDP, Strategy::DDP});
        plans.push_back(p);
        p.fsdpPrefetch = true;
        plans.push_back(p);
        plans.push_back(ParallelPlan::fsdpBaseline());
    }
    for (size_t i = 0; i < plans.size(); ++i) {
        PerfReport spliced = ctx.evaluate(plans[i]);
        PerfReport want =
            reference::evaluate(model, desc, task, plans[i]);
        expectBitIdentical(spliced, want, "plan " + std::to_string(i));
    }
}

// The fingerprint engine cache keys embed sees every field of the
// stack: a bandwidth tweak anywhere changes it.
TEST(TopologyDifferential, ModelIdentitiesNeverAlias)
{
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    TopologySpec tweaked = TopologySpec::flatEquivalent(cluster);
    tweaked.levels[1].linkBandwidth *= 1.0000000001;
    EXPECT_NE(TopologySpec::flatEquivalent(cluster).fingerprint(),
              tweaked.fingerprint());
}

// A cluster is priced on its attached stack, or on its flat-equivalent
// stack when it carries none.
TEST(TopologyDifferential, ClusterPricesItsOwnStack)
{
    ClusterSpec flat_cluster = hw_zoo::dlrmTrainingSystem();
    ClusterSpec topo_cluster = hw_zoo::withTopology(
        flat_cluster, hw_zoo::dcRailTopology(flat_cluster));

    EXPECT_EQ(TopologyCollectiveModel(flat_cluster).spec().fingerprint(),
              TopologySpec::flatEquivalent(flat_cluster).fingerprint());
    EXPECT_EQ(TopologyCollectiveModel(topo_cluster).spec().fingerprint(),
              topo_cluster.topology->fingerprint());
}

namespace
{

/** Non-timeline report fields, doubles rendered %.17g. */
std::string
dumpReport(const PerfReport &r)
{
    std::string out;
    out += "model=" + r.modelName + " cluster=" + r.clusterName +
        " task=" + r.taskName + "\n";
    out += "plan=" + r.plan.toString() +
        strfmt(" prefetch=%d valid=%d gbs=%ld ctx=%ld\n",
               r.plan.fsdpPrefetch ? 1 : 0, r.valid ? 1 : 0,
               r.globalBatchSize, r.contextLength);
    out += strfmt("time iter=%.17g ser=%.17g comp=%.17g comm=%.17g "
                  "exp=%.17g\n",
                  r.iterationTime, r.serializedTime, r.computeTime,
                  r.commTime, r.exposedCommTime);
    out += "sbd";
    for (const auto &[cat, sec] : r.serializedBreakdown)
        out += strfmt(" %s=%.17g", toString(cat).c_str(), sec);
    out += "\nebd";
    for (const auto &[cat, sec] : r.exposedBreakdown)
        out += strfmt(" %s=%.17g", toString(cat).c_str(), sec);
    out += "\n";
    return out;
}

} // namespace

// Golden for a topology-enabled sweep: GPT-3 explore on the LLM
// system under the dc-pod-fleet preset. Pins the topology model's
// actual (non-flat) numbers; CI's golden-drift step regenerates and
// diffs it like every other golden.
TEST(TopologyGolden, Gpt3PodFleetSweep)
{
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    cluster = hw_zoo::withTopology(cluster,
                                   hw_zoo::dcPodFleetTopology(cluster));
    PerfModel model(cluster);
    Exploration ex = StrategyExplorer(model).explore(
        model_zoo::gpt3(), TaskSpec::preTraining(), ExplorerOptions{});

    std::string out = strfmt("results=%zu\n", ex.results.size());
    for (size_t i = 0; i < ex.results.size(); ++i) {
        out += strfmt("== rank %03zu ==\n", i);
        out += dumpReport(ex.results[i].report);
    }
    testing::checkGolden("topology_gpt3_podfleet.txt", out);
}

} // namespace madmax
