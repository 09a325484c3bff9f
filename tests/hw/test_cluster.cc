#include <gtest/gtest.h>

#include "hw/cluster.hh"
#include "hw/hw_zoo.hh"
#include "hw/topology.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace madmax
{

namespace
{

ClusterSpec
testCluster()
{
    return hw_zoo::dlrmTrainingSystem();
}

} // namespace

TEST(ClusterSpec, DeviceCounts)
{
    ClusterSpec c = testCluster();
    EXPECT_EQ(c.devicesPerNode, 8);
    EXPECT_EQ(c.numNodes, 16);
    EXPECT_EQ(c.numDevices(), 128);
}

TEST(ClusterSpec, EffectiveBandwidthsApplyUtilization)
{
    ClusterSpec c = testCluster();
    EXPECT_DOUBLE_EQ(c.effIntraBandwidth(),
                     c.device.intraNodeBandwidth * c.util.intraLink);
    EXPECT_DOUBLE_EQ(c.effInterBandwidth(),
                     c.device.interNodeBandwidth * c.util.interLink);
}

TEST(ClusterSpec, Aggregates)
{
    ClusterSpec c = testCluster();
    EXPECT_DOUBLE_EQ(c.aggregatePeakFlops(DataType::TF32),
                     c.device.peakFlopsTf32 * 128);
}

TEST(ClusterSpec, ValidateRejectsNonsense)
{
    ClusterSpec c = testCluster();
    c.numNodes = 0;
    EXPECT_THROW(c.validate(), ConfigError);

    c = testCluster();
    c.devicesPerNode = -1;
    EXPECT_THROW(c.validate(), ConfigError);

    c = testCluster();
    c.device.hbmCapacity = 0.0;
    EXPECT_THROW(c.validate(), ConfigError);

    c = testCluster();
    c.util.compute = 1.5;
    EXPECT_THROW(c.validate(), ConfigError);

    c = testCluster();
    c.util.interLink = 0.0;
    EXPECT_THROW(c.validate(), ConfigError);
}

TEST(ClusterSpec, ScaledVariantsAreIndependentCopies)
{
    ClusterSpec base = testCluster();
    ClusterSpec boosted = base.withComputeScale(10.0);
    EXPECT_DOUBLE_EQ(boosted.device.peakFlopsTf32,
                     base.device.peakFlopsTf32 * 10.0);
    EXPECT_DOUBLE_EQ(boosted.device.peakFlopsTensor16,
                     base.device.peakFlopsTensor16 * 10.0);
    // Other capabilities untouched.
    EXPECT_DOUBLE_EQ(boosted.device.hbmCapacity, base.device.hbmCapacity);

    ClusterSpec cap = base.withHbmCapacityScale(2.0);
    EXPECT_DOUBLE_EQ(cap.device.hbmCapacity,
                     base.device.hbmCapacity * 2.0);
    EXPECT_DOUBLE_EQ(cap.device.hbmBandwidth, base.device.hbmBandwidth);

    ClusterSpec bw = base.withHbmBandwidthScale(3.0);
    EXPECT_DOUBLE_EQ(bw.device.hbmBandwidth,
                     base.device.hbmBandwidth * 3.0);

    ClusterSpec intra = base.withIntraBandwidthScale(4.0);
    EXPECT_DOUBLE_EQ(intra.device.intraNodeBandwidth,
                     base.device.intraNodeBandwidth * 4.0);

    ClusterSpec inter = base.withInterBandwidthScale(5.0);
    EXPECT_DOUBLE_EQ(inter.device.interNodeBandwidth,
                     base.device.interNodeBandwidth * 5.0);

    ClusterSpec nodes = base.withNumNodes(1);
    EXPECT_EQ(nodes.numNodes, 1);
    EXPECT_EQ(nodes.numDevices(), 8);
}

TEST(ClusterSpec, ValidateCoversAttachedTopology)
{
    ClusterSpec c = hw_zoo::withTopology(
        testCluster(), TopologySpec::flatEquivalent(testCluster()));
    c.validate(); // Consistent stack passes.

    // Mutating the cluster shape out from under the stack must fail
    // cluster validation (the topology can no longer describe it).
    ClusterSpec narrowed = c;
    narrowed.devicesPerNode = 4;
    EXPECT_THROW(narrowed.validate(), ConfigError);
}

TEST(ClusterSpec, WithNumNodesDropsStaleTopology)
{
    ClusterSpec c = hw_zoo::withTopology(
        testCluster(), hw_zoo::dcRailTopology(testCluster()));
    ASSERT_NE(c.topology, nullptr);

    // Resizing invalidates the tier stack: node-count sweeps fall
    // back to flat pricing instead of failing validation.
    ClusterSpec resized = c.withNumNodes(4);
    EXPECT_EQ(resized.topology, nullptr);
    resized.validate();

    // A no-op resize keeps the stack.
    ClusterSpec same = c.withNumNodes(c.numNodes);
    EXPECT_NE(same.topology, nullptr);
    same.validate();
}

TEST(FabricKind, Names)
{
    EXPECT_EQ(toString(FabricKind::NVLink), "NVLink");
    EXPECT_EQ(toString(FabricKind::RoCE), "RoCE");
    EXPECT_EQ(toString(FabricKind::InfiniBand), "InfiniBand");
}

namespace
{

/** A two-group mixed fleet for the heterogeneity tests. */
ClusterSpec
twoGroupCluster()
{
    ClusterSpec c;
    c.name = "mixed";
    c.interFabric = FabricKind::InfiniBand;
    DeviceGroup fast;
    fast.name = "fast";
    fast.device = hw_zoo::h100();
    fast.devicesPerNode = 8;
    fast.numNodes = 2;
    c.groups.push_back(fast);
    DeviceGroup big;
    big.name = "big";
    big.device = hw_zoo::a100_80();
    big.devicesPerNode = 4;
    big.numNodes = 6;
    c.groups.push_back(big);
    return c;
}

} // namespace

TEST(DeviceGroups, GroupClusterProjectsAnIsland)
{
    ClusterSpec c = twoGroupCluster();
    EXPECT_TRUE(c.isHeterogeneous());
    EXPECT_EQ(c.totalDevices(), 16 + 24);
    c.validate();

    ClusterSpec island = c.groupCluster(1);
    EXPECT_FALSE(island.isHeterogeneous());
    EXPECT_EQ(island.name, "mixed/big");
    EXPECT_EQ(island.device.name, "A100-80GB");
    EXPECT_EQ(island.devicesPerNode, 4);
    EXPECT_EQ(island.numNodes, 6);
    // Cluster-level scale-out fabric and utilizations carry over, so
    // islands price collectives exactly like a standalone cluster.
    EXPECT_EQ(island.interFabric, c.interFabric);
    EXPECT_EQ(island.util.interLink, c.util.interLink);
    island.validate();
}

TEST(DeviceGroups, ValidateRejectsMalformedFleets)
{
    // Duplicate group names would make placements ambiguous.
    ClusterSpec dup = twoGroupCluster();
    dup.groups[1].name = "fast";
    EXPECT_THROW(dup.validate(), ConfigError);

    ClusterSpec unnamed = twoGroupCluster();
    unnamed.groups[0].name.clear();
    EXPECT_THROW(unnamed.validate(), ConfigError);

    // Groups are stitched at the scale-out tier; a group whose device
    // has no inter-node bandwidth cannot reach the others.
    ClusterSpec stranded = twoGroupCluster();
    stranded.groups[0].device.interNodeBandwidth = 0.0;
    EXPECT_THROW(stranded.validate(), ConfigError);

    // An explicit topology describes ONE homogeneous tier stack; it
    // cannot coexist with device groups.
    ClusterSpec conflicted = twoGroupCluster();
    conflicted.topology = std::make_shared<const TopologySpec>(
        hw_zoo::flatTopologyPreset(hw_zoo::dlrmTrainingSystem()));
    EXPECT_THROW(conflicted.validate(), ConfigError);

    // Group shapes are validated like standalone clusters.
    ClusterSpec empty_group = twoGroupCluster();
    empty_group.groups[1].numNodes = 0;
    EXPECT_THROW(empty_group.validate(), ConfigError);
}

} // namespace madmax
