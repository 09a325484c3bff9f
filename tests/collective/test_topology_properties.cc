/**
 * @file
 * Property suite for the topology-aware collective model
 * (collective/topology_model.hh). Where the differential suite pins
 * the flat-equivalent spec bitwise, this one pins the *shape* of the
 * cost surface on arbitrary tier stacks:
 *
 *  - more bytes never prices faster, on any (kind, scope);
 *  - slowing any one tier's links never prices faster;
 *  - hierarchical AllReduce at Global scope never loses to a flat
 *    single-ring (or tree) reference built from the stack's slowest
 *    effective link and largest alpha;
 *  - the reported algorithm matches the documented selection rules;
 *  - malformed specs and arguments fail loudly with ConfigError.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "collective/topology_model.hh"
#include "hw/hw_zoo.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace madmax
{

using namespace units;

namespace
{

const Collective kKinds[] = {
    Collective::AllReduce,   Collective::AllGather,
    Collective::ReduceScatter, Collective::All2All,
    Collective::Broadcast,
};

const CommScope kScopes[] = {
    CommScope::Intra, CommScope::Inter, CommScope::Global,
};

/** A random 2..4-tier stack with explicit latencies everywhere, so
 *  the resolved alphas are exactly the spec's values. */
TopologySpec
randomSpec(std::mt19937_64 &rng)
{
    std::uniform_int_distribution<int> num_levels(2, 4);
    std::uniform_int_distribution<int> fan(1, 8);
    std::uniform_real_distribution<double> log_bw(8.0, 11.5);
    std::uniform_real_distribution<double> latency(0.0, 2e-5);
    std::uniform_int_distribution<int> rails(1, 4);
    std::uniform_real_distribution<double> sharers(1.0, 4.0);

    TopologySpec t;
    t.name = "random";
    const int n = num_levels(rng);
    for (int i = 0; i < n; ++i) {
        TopologyLevel lv;
        lv.name = "t" + std::to_string(i);
        lv.fan = i == 0 ? std::max(2, fan(rng)) : fan(rng);
        lv.linkBandwidth = std::pow(10.0, log_bw(rng));
        lv.linkLatency = latency(rng);
        lv.rails = rails(rng);
        lv.sharers = sharers(rng);
        t.levels.push_back(lv);
    }
    return t;
}

/** Random message sizes spanning the latency- to bandwidth-bound
 *  regimes (plus the 0 and 1 byte edges). */
std::vector<double>
randomBytes(std::mt19937_64 &rng, int count)
{
    std::uniform_real_distribution<double> exponent(0.0, 10.0);
    std::vector<double> out = {0.0, 1.0};
    for (int i = 0; i < count; ++i)
        out.push_back(std::pow(10.0, exponent(rng)));
    std::sort(out.begin(), out.end());
    return out;
}

double
resolvedAlpha(const TopologyLevel &lv, size_t level,
              CollectiveLatency latency)
{
    if (lv.linkLatency >= 0.0)
        return lv.linkLatency;
    return level == 0 ? latency.intraAlpha : latency.interAlpha;
}

/**
 * The flat single-tier stack a hierarchical decomposition must beat:
 * all devices in one ring on the stack's slowest effective link,
 * paying the stack's largest alpha per step. (Level 1 with fan 1 only
 * satisfies the >= 2-level invariant; it prices to zero.)
 */
TopologySpec
flatReference(const TopologySpec &subject, CollectiveLatency latency)
{
    double min_bw = std::numeric_limits<double>::infinity();
    double max_alpha = 0.0;
    for (size_t i = 0; i < subject.levels.size(); ++i) {
        const TopologyLevel &lv = subject.levels[i];
        if (lv.fan <= 1)
            continue;
        min_bw = std::min(min_bw, lv.effBandwidth());
        max_alpha = std::max(max_alpha, resolvedAlpha(lv, i, latency));
    }
    TopologySpec ref;
    ref.name = "flat-reference";
    ref.levels.push_back(TopologyLevel{
        "all", subject.totalDevices(), min_bw, max_alpha, 1, 1.0});
    ref.levels.push_back(TopologyLevel{"top", 1, 0.0, 0.0, 1, 1.0});
    return ref;
}

} // namespace

// More bytes can never price faster: every closed form is a sum of
// terms linear in the message size with non-negative rates, and Auto
// takes a min of two such terms. Exact (not epsilon) comparisons:
// IEEE rounding is monotone, so the property holds in floating point
// too.
TEST(TopologyProperties, MoreBytesNeverFaster)
{
    std::mt19937_64 rng(0xB17E5ull);
    for (int trial = 0; trial < 40; ++trial) {
        const TopologySpec spec = randomSpec(rng);
        const TopologyCollectiveModel model(spec);
        const std::vector<double> sizes = randomBytes(rng, 12);
        for (Collective kind : kKinds) {
            for (CommScope scope : kScopes) {
                double prev = 0.0;
                for (double bytes : sizes) {
                    const double t = model.time(kind, scope, bytes);
                    EXPECT_GE(t, prev)
                        << toString(kind) << "/" << toString(scope)
                        << " at " << bytes << "B (trial " << trial
                        << ")";
                    prev = t;
                }
            }
        }
    }
}

// Halving any single tier's link bandwidth can never price faster.
TEST(TopologyProperties, SlowerLinkNeverFaster)
{
    std::mt19937_64 rng(0x510Bull);
    for (int trial = 0; trial < 25; ++trial) {
        const TopologySpec spec = randomSpec(rng);
        const TopologyCollectiveModel base(spec);
        const std::vector<double> sizes = randomBytes(rng, 6);
        for (size_t level = 0; level < spec.levels.size(); ++level) {
            TopologySpec slowed = spec;
            slowed.levels[level].linkBandwidth /= 2.0;
            const TopologyCollectiveModel slow(slowed);
            for (Collective kind : kKinds) {
                for (CommScope scope : kScopes) {
                    for (double bytes : sizes) {
                        EXPECT_GE(slow.time(kind, scope, bytes),
                                  base.time(kind, scope, bytes))
                            << toString(kind) << "/" << toString(scope)
                            << " at " << bytes << "B, level " << level
                            << " halved (trial " << trial << ")";
                    }
                }
            }
        }
    }
}

// The hierarchical Global AllReduce never loses to pricing the whole
// group as one flat ring (or tree) on the stack's slowest effective
// link with its largest alpha. The ring bound is exact: the per-tier
// shard volumes telescope to (n-1)/n of the tensor, and the ring
// steps sum to at most n-1; the slack only absorbs floating-point
// reassociation.
TEST(TopologyProperties, HierarchicalBeatsFlatReference)
{
    const CollectiveLatency latency{};
    std::vector<TopologySpec> specs;
    std::mt19937_64 rng(0x41E2ull);
    for (int trial = 0; trial < 30; ++trial)
        specs.push_back(randomSpec(rng));
    specs.push_back(
        hw_zoo::dcRailTopology(hw_zoo::dlrmTrainingSystem()));
    specs.push_back(
        hw_zoo::dcPodFleetTopology(hw_zoo::llmTrainingSystem()));

    for (const TopologySpec &spec : specs) {
        const TopologyCollectiveModel subject(spec, latency);
        const TopologySpec ref = flatReference(spec, latency);
        const TopologyCollectiveModel ring_ref(
            ref, latency, AllReduceAlgorithm::Ring);
        const TopologyCollectiveModel tree_ref(
            ref, latency, AllReduceAlgorithm::Tree);
        for (double bytes : {1.0, 4096.0, 1e6, 1e9}) {
            const double hier =
                subject.time(Collective::AllReduce, CommScope::Global,
                             bytes);
            const double ring = ring_ref.time(
                Collective::AllReduce, CommScope::Intra, bytes);
            const double tree = tree_ref.time(
                Collective::AllReduce, CommScope::Intra, bytes);
            EXPECT_LE(hier, std::max(ring, tree) * (1.0 + 1e-9))
                << spec.name << " at " << bytes << "B";
        }
    }
}

// The reported algorithm follows the documented selection rules on
// the flat-equivalent two-tier stack (d = 8, m = 16).
TEST(TopologyProperties, AlgorithmSelectionRules)
{
    const ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    const TopologySpec spec = TopologySpec::flatEquivalent(cluster);
    const TopologyCollectiveModel model(spec);

    // Auto AllReduce within one tier: tiny messages are latency-bound
    // (tree), large ones bandwidth-bound (ring).
    EXPECT_EQ(model.estimate(Collective::AllReduce, CommScope::Intra,
                             64.0)
                  .algo,
              CollAlgo::Tree);
    EXPECT_EQ(model.estimate(Collective::AllReduce, CommScope::Intra,
                             gb(1))
                  .algo,
              CollAlgo::Ring);
    // Multi-tier AllReduce decomposes hierarchically regardless of
    // size.
    EXPECT_EQ(model.estimate(Collective::AllReduce, CommScope::Global,
                             gb(1))
                  .algo,
              CollAlgo::Hierarchical);
    // AllGather / ReduceScatter: ring within a tier, hierarchical
    // across tiers.
    EXPECT_EQ(model.estimate(Collective::AllGather, CommScope::Intra,
                             mb(1))
                  .algo,
              CollAlgo::Ring);
    EXPECT_EQ(model.estimate(Collective::AllGather, CommScope::Global,
                             mb(1))
                  .algo,
              CollAlgo::Hierarchical);
    EXPECT_EQ(model.estimate(Collective::ReduceScatter,
                             CommScope::Inter, mb(1))
                  .algo,
              CollAlgo::Ring);
    // All2All is point-to-point Send/Recv; Broadcast a pipelined tree.
    EXPECT_EQ(model.estimate(Collective::All2All, CommScope::Global,
                             mb(1))
                  .algo,
              CollAlgo::PointToPoint);
    EXPECT_EQ(model.estimate(Collective::Broadcast, CommScope::Intra,
                             mb(1))
                  .algo,
              CollAlgo::Tree);
    // Zero-byte and single-device collectives report no algorithm.
    EXPECT_EQ(model.estimate(Collective::AllReduce, CommScope::Intra,
                             0.0)
                  .algo,
              CollAlgo::None);

    // A forced algorithm overrides the tuner.
    const TopologyCollectiveModel ring_model(
        spec, CollectiveLatency{}, AllReduceAlgorithm::Ring);
    EXPECT_EQ(ring_model
                  .estimate(Collective::AllReduce, CommScope::Intra,
                            64.0)
                  .algo,
              CollAlgo::Ring);
}

// Malformed specs and arguments must fail loudly, not price garbage.
TEST(TopologyProperties, ValidationErrors)
{
    const TopologyLevel node{"node", 8, gBps(240), -1.0, 1, 1.0};
    const TopologyLevel fabric{"fabric", 16, gBps(16), -1.0, 1, 1.0};

    {
        TopologySpec t; // One level is below the 2..8 invariant.
        t.levels = {node};
        EXPECT_THROW(t.validate(), ConfigError);
    }
    {
        TopologySpec t; // Nine levels exceed it.
        t.levels.assign(9, fabric);
        t.levels[0] = node;
        EXPECT_THROW(t.validate(), ConfigError);
    }
    {
        TopologySpec t = {"bad-fan", {node, fabric}};
        t.levels[1].fan = 0;
        EXPECT_THROW(t.validate(), ConfigError);
    }
    {
        TopologySpec t = {"no-bw", {node, fabric}};
        t.levels[1].linkBandwidth = 0.0; // fan > 1 needs links.
        EXPECT_THROW(t.validate(), ConfigError);
    }
    {
        TopologySpec t = {"bad-rails", {node, fabric}};
        t.levels[0].rails = 0;
        EXPECT_THROW(t.validate(), ConfigError);
    }
    {
        TopologySpec t = {"bad-sharers", {node, fabric}};
        t.levels[1].sharers = 0.5;
        EXPECT_THROW(t.validate(), ConfigError);
    }

    // Shape mismatches against the owning cluster.
    const ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    {
        TopologySpec t = TopologySpec::flatEquivalent(cluster);
        t.levels[0].fan = 4; // != devicesPerNode.
        EXPECT_THROW(t.validateAgainst(cluster), ConfigError);
    }
    {
        TopologySpec t = TopologySpec::flatEquivalent(cluster);
        t.levels[1].fan = 15; // Scale-out product != numNodes.
        EXPECT_THROW(t.validateAgainst(cluster), ConfigError);
        EXPECT_THROW(hw_zoo::withTopology(cluster, t), ConfigError);
    }

    // Bad pricing arguments.
    const TopologyCollectiveModel model(
        TopologySpec::flatEquivalent(cluster));
    EXPECT_THROW(
        model.time(Collective::AllReduce, CommScope::Global, -1.0),
        ConfigError);
}

} // namespace madmax
