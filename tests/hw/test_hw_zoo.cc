#include <gtest/gtest.h>

#include "hw/hw_zoo.hh"
#include "util/units.hh"

namespace madmax
{

using namespace units;

// Table III: DLRM training system aggregates.
TEST(HwZoo, DlrmTrainingSystemMatchesTableIII)
{
    ClusterSpec c = hw_zoo::dlrmTrainingSystem();
    c.validate();
    EXPECT_EQ(c.numDevices(), 128);
    // 20 PFLOPS aggregate TF32.
    EXPECT_NEAR(c.aggregatePeakFlops(DataType::TF32), pflops(20),
                pflops(0.1));
    // 5 TB HBM capacity (GiB-based, allow 10%).
    EXPECT_NEAR(c.numDevices() * c.device.hbmCapacity, tb(5), tb(0.55));
    // 199 TB/s aggregate HBM bandwidth (128 x 1.6).
    EXPECT_NEAR(c.numDevices() * c.device.hbmBandwidth, tBps(204.8),
                tBps(6));
    // 38.4 TB/s intra-node unidirectional aggregate: 128 x 300 GB/s.
    EXPECT_NEAR(c.device.intraNodeBandwidth * 128, tBps(38.4), tBps(0.1));
    // 25.6 Tbps inter-node unidirectional aggregate: 128 x 200 Gbps.
    EXPECT_NEAR(c.device.interNodeBandwidth * 128, tbps(25.6), gBps(1));
    EXPECT_EQ(c.interFabric, FabricKind::RoCE);
}

// Table III: LLM training system aggregates.
TEST(HwZoo, LlmTrainingSystemMatchesTableIII)
{
    ClusterSpec c = hw_zoo::llmTrainingSystem();
    c.validate();
    EXPECT_EQ(c.numDevices(), 2048);
    EXPECT_NEAR(c.aggregatePeakFlops(DataType::TF32), pflops(319),
                pflops(1));
    EXPECT_NEAR(c.numDevices() * c.device.hbmCapacity, tb(164), tb(18));
    EXPECT_NEAR(c.numDevices() * c.device.hbmBandwidth, pBps(3.96),
                pBps(0.15));
    EXPECT_NEAR(c.device.interNodeBandwidth * 2048, tbps(409.6),
                gBps(10));
    EXPECT_EQ(c.interFabric, FabricKind::InfiniBand);
}

// Table IV device datasheets.
TEST(HwZoo, TableIVDevices)
{
    DeviceSpec a100 = hw_zoo::a100_40();
    EXPECT_DOUBLE_EQ(a100.peakFlopsTensor16, tflops(312));
    EXPECT_DOUBLE_EQ(a100.peakFlopsTf32, tflops(156));
    EXPECT_DOUBLE_EQ(a100.hbmCapacity, gib(40));
    EXPECT_DOUBLE_EQ(a100.hbmBandwidth, tBps(1.6));
    EXPECT_DOUBLE_EQ(a100.interNodeBandwidth, gbps(200));

    DeviceSpec h100 = hw_zoo::h100();
    EXPECT_DOUBLE_EQ(h100.peakFlopsTensor16, tflops(756));
    EXPECT_DOUBLE_EQ(h100.hbmCapacity, gib(80));
    EXPECT_DOUBLE_EQ(h100.hbmBandwidth, tBps(2.0));
    EXPECT_DOUBLE_EQ(h100.interNodeBandwidth, gbps(400));

    // SuperPOD: 9x the A100's per-device inter-node bandwidth
    // (Insight 10: "2x (9x for SuperPOD)").
    DeviceSpec pod = hw_zoo::h100SuperPod();
    EXPECT_NEAR(pod.interNodeBandwidth / a100.interNodeBandwidth, 9.0,
                0.01);
    // And ~4.5x the H100 DGX.
    EXPECT_NEAR(pod.interNodeBandwidth / h100.interNodeBandwidth, 4.5,
                0.01);

    DeviceSpec mi250 = hw_zoo::mi250x();
    EXPECT_DOUBLE_EQ(mi250.peakFlopsTensor16, tflops(383));
    EXPECT_DOUBLE_EQ(mi250.hbmCapacity, gib(128));

    DeviceSpec mi300 = hw_zoo::mi300x();
    EXPECT_DOUBLE_EQ(mi300.peakFlopsTensor16, tflops(1307));
    EXPECT_DOUBLE_EQ(mi300.hbmCapacity, gib(192));
    EXPECT_DOUBLE_EQ(mi300.hbmBandwidth, tBps(5.3));

    DeviceSpec g2 = hw_zoo::gaudi2();
    EXPECT_DOUBLE_EQ(g2.peakFlopsTensor16, tflops(400));
    EXPECT_DOUBLE_EQ(g2.hbmCapacity, gib(96));
    EXPECT_DOUBLE_EQ(g2.intraNodeBandwidth, gBps(262.5));
}

TEST(HwZoo, SimulatedPlatformsKeep128Devices)
{
    for (const ClusterSpec &c :
         {hw_zoo::h100System(), hw_zoo::h100SuperPodSystem(),
          hw_zoo::mi250xSystem(), hw_zoo::mi300xSystem(),
          hw_zoo::gaudi2System()}) {
        EXPECT_EQ(c.numDevices(), 128) << c.name;
        EXPECT_NO_THROW(c.validate()) << c.name;
    }
}

TEST(HwZoo, CloudInstancesSpanGenerationsAndBandwidths)
{
    auto instances = hw_zoo::cloudInstances(16);
    ASSERT_GE(instances.size(), 5u);

    bool has_v100 = false, has_a100 = false, has_h100 = false;
    double min_bw = 1e18, max_bw = 0.0;
    for (const auto &inst : instances) {
        EXPECT_NO_THROW(inst.cluster.validate()) << inst.name;
        EXPECT_GT(inst.a100PeakRatio, 0.0);
        std::string dev = inst.cluster.device.name;
        has_v100 |= dev.find("V100") != std::string::npos;
        has_a100 |= dev.find("A100") != std::string::npos;
        has_h100 |= dev.find("H100") != std::string::npos;
        min_bw = std::min(min_bw, inst.cluster.device.interNodeBandwidth);
        max_bw = std::max(max_bw, inst.cluster.device.interNodeBandwidth);
    }
    EXPECT_TRUE(has_v100);
    EXPECT_TRUE(has_a100);
    EXPECT_TRUE(has_h100);
    // Inter-node bandwidth spread of well over an order of magnitude
    // (Fig. 16: "<1 to 25 GB/s").
    EXPECT_GT(max_bw / min_bw, 10.0);
}

TEST(HwZoo, AwsP4dHasQuarterOfZionExInterBandwidth)
{
    // §V: p4d instances have "4x lower inter-node interconnect
    // bandwidth compared to systems enumerated in Table III".
    ClusterSpec p4d = hw_zoo::awsP4d(16);
    ClusterSpec zion = hw_zoo::dlrmTrainingSystem();
    EXPECT_NEAR(zion.device.interNodeBandwidth /
                    p4d.device.interNodeBandwidth,
                4.0, 0.01);
}

TEST(HwZoo, MixedInferenceFleetIsAValidTwoIslandCluster)
{
    ClusterSpec fleet = hw_zoo::mixedInferenceFleet();
    fleet.validate();
    ASSERT_TRUE(fleet.isHeterogeneous());
    ASSERT_EQ(fleet.groups.size(), 2u);
    EXPECT_EQ(fleet.groups[0].name, "h100-pool");
    EXPECT_EQ(fleet.groups[1].name, "a100-80-pool");
    EXPECT_EQ(fleet.totalDevices(), 2 * 8 + 4 * 8);

    // The compute-dense island outruns the capacity-dense island on
    // FLOPs; both have the same per-device HBM capacity, so the A100
    // pool's extra devices are what make it the decode island.
    ClusterSpec h = fleet.groupCluster(0);
    ClusterSpec a = fleet.groupCluster(1);
    EXPECT_GT(h.device.peakFlopsTensor16, a.device.peakFlopsTensor16);
    EXPECT_GT(a.numDevices() * a.device.hbmCapacity,
              h.numDevices() * h.device.hbmCapacity);
}

} // namespace madmax
