/**
 * @file
 * The §IV-C closed forms, checked on the production collective model
 * (TopologyCollectiveModel) for flat clusters, which it prices on
 * their flat-equivalent tier stack.
 */

#include <gtest/gtest.h>

#include "collective/topology_model.hh"
#include "hw/hw_zoo.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace madmax
{

using namespace units;

namespace
{

/** 16 nodes x 8 devices, clean bandwidths, zero latency. */
TopologyCollectiveModel
idealModel(int nodes = 16, int devs = 8)
{
    ClusterSpec c = hw_zoo::dlrmTrainingSystem();
    c.numNodes = nodes;
    c.devicesPerNode = devs;
    c.util.intraLink = 1.0;
    c.util.interLink = 1.0;
    c.device.intraNodeBandwidth = gBps(300);
    c.device.interNodeBandwidth = gBps(25);
    return TopologyCollectiveModel(c, CollectiveLatency{0.0, 0.0});
}

} // namespace

TEST(CollectiveModel, GroupSizes)
{
    TopologyCollectiveModel m = idealModel();
    EXPECT_EQ(m.groupSize(CommScope::Intra), 8);
    EXPECT_EQ(m.groupSize(CommScope::Inter), 16);
    EXPECT_EQ(m.groupSize(CommScope::Global), 128);
}

TEST(CollectiveModel, IntraRingClosedForms)
{
    TopologyCollectiveModel m = idealModel();
    const double T = gb(1);
    // AllGather/ReduceScatter: T*(g-1)/g / bw.
    EXPECT_NEAR(m.time(Collective::AllGather, CommScope::Intra, T),
                T * 7.0 / 8.0 / gBps(300), 1e-9);
    EXPECT_NEAR(m.time(Collective::ReduceScatter, CommScope::Intra, T),
                T * 7.0 / 8.0 / gBps(300), 1e-9);
    // AllReduce: 2x.
    EXPECT_NEAR(m.time(Collective::AllReduce, CommScope::Intra, T),
                2.0 * T * 7.0 / 8.0 / gBps(300), 1e-9);
}

TEST(CollectiveModel, InterRingClosedForms)
{
    TopologyCollectiveModel m = idealModel();
    const double T = gb(1);
    EXPECT_NEAR(m.time(Collective::AllGather, CommScope::Inter, T),
                T * 15.0 / 16.0 / gBps(25), 1e-9);
    EXPECT_NEAR(m.time(Collective::AllReduce, CommScope::Inter, T),
                2.0 * T * 15.0 / 16.0 / gBps(25), 1e-9);
}

TEST(CollectiveModel, GlobalAllReduceIsHierarchical)
{
    // RS intra + AR inter on the 1/d shard + AG intra (§IV-C:
    // effective bandwidth is a ratio of the two fabrics).
    TopologyCollectiveModel m = idealModel();
    const double T = gb(1);
    double expected = T * 7.0 / 8.0 / gBps(300)             // RS intra
        + 2.0 * (T / 8.0) * 15.0 / 16.0 / gBps(25)          // AR inter
        + T * 7.0 / 8.0 / gBps(300);                        // AG intra
    EXPECT_NEAR(m.time(Collective::AllReduce, CommScope::Global, T),
                expected, 1e-9);
}

TEST(CollectiveModel, GlobalAllGatherUsesRailParallelism)
{
    // The d rails each carry a 1/d stripe across nodes; NIC traffic
    // is T/d per device, not T.
    TopologyCollectiveModel m = idealModel();
    const double T = gb(1);
    double expected = (T / 8.0) * 15.0 / 16.0 / gBps(25)
        + T * 7.0 / 8.0 / gBps(300);
    EXPECT_NEAR(m.time(Collective::AllGather, CommScope::Global, T),
                expected, 1e-9);
    EXPECT_NEAR(m.time(Collective::ReduceScatter, CommScope::Global, T),
                expected, 1e-9);
}

TEST(CollectiveModel, All2AllBoundBySlowestFabric)
{
    // §IV-C: NCCL All2All is point-to-point Send/Recv, bound by the
    // slowest interconnect spanned.
    TopologyCollectiveModel m = idealModel();
    const double T = gb(1);
    double t = m.time(Collective::All2All, CommScope::Global, T);
    EXPECT_NEAR(t, T * 127.0 / 128.0 / gBps(25), 1e-9);

    // On a single-node system the same collective rides NVLink.
    TopologyCollectiveModel single = idealModel(1, 8);
    double t1 = single.time(Collective::All2All, CommScope::Global, T);
    EXPECT_NEAR(t1, T * 7.0 / 8.0 / gBps(300), 1e-9);
}

TEST(CollectiveModel, DegenerateGroupsAreFree)
{
    TopologyCollectiveModel single = idealModel(1, 8);
    // One node: inter collectives cost nothing.
    EXPECT_DOUBLE_EQ(
        single.time(Collective::AllReduce, CommScope::Inter, gb(1)), 0.0);

    TopologyCollectiveModel one_dev = idealModel(16, 1);
    EXPECT_DOUBLE_EQ(
        one_dev.time(Collective::AllGather, CommScope::Intra, gb(1)), 0.0);

    TopologyCollectiveModel m = idealModel();
    EXPECT_DOUBLE_EQ(
        m.time(Collective::AllReduce, CommScope::Global, 0.0), 0.0);
}

TEST(CollectiveModel, NegativeBytesAreFatal)
{
    TopologyCollectiveModel m = idealModel();
    EXPECT_THROW(m.time(Collective::AllReduce, CommScope::Global, -1.0),
                 ConfigError);
}

TEST(CollectiveModel, TimeScalesLinearlyInBytes)
{
    TopologyCollectiveModel m = idealModel();
    for (Collective kind :
         {Collective::AllReduce, Collective::AllGather,
          Collective::ReduceScatter, Collective::All2All}) {
        double t1 = m.time(kind, CommScope::Global, gb(1));
        double t2 = m.time(kind, CommScope::Global, gb(2));
        EXPECT_NEAR(t2 / t1, 2.0, 1e-9) << toString(kind);
    }
}

TEST(CollectiveModel, MoreBandwidthNeverHurts)
{
    ClusterSpec base = hw_zoo::dlrmTrainingSystem();
    TopologyCollectiveModel slow(base);
    TopologyCollectiveModel fast_inter(base.withInterBandwidthScale(4.0));
    TopologyCollectiveModel fast_intra(base.withIntraBandwidthScale(4.0));
    for (Collective kind :
         {Collective::AllReduce, Collective::AllGather,
          Collective::ReduceScatter, Collective::All2All,
          Collective::Broadcast}) {
        for (CommScope scope :
             {CommScope::Intra, CommScope::Inter, CommScope::Global}) {
            double t = slow.time(kind, scope, gb(1));
            EXPECT_LE(fast_inter.time(kind, scope, gb(1)), t + 1e-12)
                << toString(kind) << " " << toString(scope);
            EXPECT_LE(fast_intra.time(kind, scope, gb(1)), t + 1e-12)
                << toString(kind) << " " << toString(scope);
        }
    }
}

TEST(CollectiveModel, LatencyTermAddsPerStepCost)
{
    ClusterSpec c = hw_zoo::dlrmTrainingSystem();
    TopologyCollectiveModel zero(c, CollectiveLatency{0.0, 0.0},
                                 AllReduceAlgorithm::Ring);
    TopologyCollectiveModel lat(c, CollectiveLatency{1e-6, 10e-6},
                                AllReduceAlgorithm::Ring);
    // Tiny message: latency dominates.
    double t0 = zero.time(Collective::AllReduce, CommScope::Inter, 8.0);
    double t1 = lat.time(Collective::AllReduce, CommScope::Inter, 8.0);
    EXPECT_GT(t1, t0);
    // 2*(m-1) ring steps at 10us.
    EXPECT_NEAR(t1 - t0, 2.0 * 15 * 10e-6, 1e-9);
}

TEST(CollectiveModel, TreeBeatsRingOnLatencyLosesOnBandwidth)
{
    // §IV-C: the effective bandwidth depends on the NCCL algorithm
    // (ring vs tree). Tree wins for tiny messages on big groups;
    // ring wins for bulk transfers.
    ClusterSpec c = hw_zoo::llmTrainingSystem(); // 256 nodes.
    TopologyCollectiveModel ring(c, CollectiveLatency{},
                                 AllReduceAlgorithm::Ring);
    TopologyCollectiveModel tree(c, CollectiveLatency{},
                                 AllReduceAlgorithm::Tree);
    TopologyCollectiveModel autosel(c, CollectiveLatency{},
                                    AllReduceAlgorithm::Auto);

    // 1 KB across 256 nodes: ring pays 2*255 alpha steps.
    double small_ring =
        ring.time(Collective::AllReduce, CommScope::Inter, kb(1));
    double small_tree =
        tree.time(Collective::AllReduce, CommScope::Inter, kb(1));
    EXPECT_LT(small_tree, small_ring);

    // 1 GB: the ring's (g-1)/g volume factor wins.
    double big_ring =
        ring.time(Collective::AllReduce, CommScope::Inter, gb(1));
    double big_tree =
        tree.time(Collective::AllReduce, CommScope::Inter, gb(1));
    EXPECT_LT(big_ring, big_tree);

    // Auto is never worse than either.
    for (double bytes : {kb(1), mb(1), gb(1)}) {
        double t = autosel.time(Collective::AllReduce, CommScope::Inter,
                                bytes);
        EXPECT_LE(t,
                  ring.time(Collective::AllReduce, CommScope::Inter,
                            bytes) +
                      1e-15);
        EXPECT_LE(t,
                  tree.time(Collective::AllReduce, CommScope::Inter,
                            bytes) +
                      1e-15);
    }
    EXPECT_EQ(toString(AllReduceAlgorithm::Auto), "auto");
    EXPECT_EQ(toString(AllReduceAlgorithm::Tree), "tree");
}

TEST(CollectiveModel, EffectiveBandwidthDiagnostic)
{
    TopologyCollectiveModel m = idealModel();
    const double T = gb(1);
    // Effective bandwidth: tensor bytes over modeled time.
    double bw = T / m.time(Collective::AllGather, CommScope::Inter, T);
    EXPECT_NEAR(bw, gBps(25) * 16.0 / 15.0, kb(1));
    EXPECT_DOUBLE_EQ(
        m.time(Collective::AllGather, CommScope::Inter, 0.0), 0.0);
}

TEST(CollectiveModel, Names)
{
    EXPECT_EQ(toString(Collective::AllReduce), "AllReduce");
    EXPECT_EQ(toString(Collective::All2All), "All2All");
    EXPECT_EQ(toString(CommScope::Global), "global");
}

// Property sweep: hierarchical global collectives should never beat
// the pure-intra cost of the same tensor (the NIC phase adds work),
// and doubling node count should not reduce any cost.
class CollectiveScaling : public ::testing::TestWithParam<int>
{
};

TEST_P(CollectiveScaling, MonotoneInNodeCount)
{
    int nodes = GetParam();
    TopologyCollectiveModel small = idealModel(nodes);
    TopologyCollectiveModel large = idealModel(nodes * 2);
    const double T = gb(1);
    for (Collective kind :
         {Collective::AllReduce, Collective::AllGather,
          Collective::All2All}) {
        EXPECT_LE(small.time(kind, CommScope::Global, T),
                  large.time(kind, CommScope::Global, T) + 1e-12)
            << toString(kind) << " nodes=" << nodes;
    }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, CollectiveScaling,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

} // namespace madmax
