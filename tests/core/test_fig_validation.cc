/**
 * @file
 * Figure-level validation under the flat default collective model:
 * Fig. 7 (DLRM-A serialized/overlapped execution, 8- vs 128-GPU
 * ZionEX) and Fig. 8 (ViT MFU across scales on AWS p4d with FSDP).
 * These pin the bench recipes (bench/fig07_dlrm_validation.cc,
 * bench/fig08_vit_validation.cc) as tests so the topology subsystem —
 * or any later model change — cannot silently shift the paper-facing
 * numbers while the flat model is selected.
 */

#include <gtest/gtest.h>

#include "collective/topology_model.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "parallel/sharding.hh"

namespace madmax
{

namespace
{

/** Fig. 7 / Fig. 11's throughput-optimal DLRM mapping. */
ParallelPlan
dlrmPlan()
{
    ParallelPlan p;
    p.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    p.set(LayerClass::BaseDense,
          HierStrategy{Strategy::TP, Strategy::DDP});
    return p;
}

double
breakdown(const PerfReport &r, EventCategory cat)
{
    return categorySeconds(r.serializedBreakdown, cat);
}

} // namespace

// Fig. 7, right half: the 128-GPU ZionEX run against the published
// measurements (67.40 ms serialized, 82.37% communication exposed,
// 1.2 MQPS). The default cluster carries no TopologySpec, so this
// exercises — and pins — the flat collective model.
TEST(FigValidation, Fig7_Dlrm128GpuMatchesMeasurement)
{
    const ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    ASSERT_EQ(cluster.topology, nullptr)
        << "Fig. 7 validation must run the flat default";
    PerfModel model(cluster);
    PerfReport r = model.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), dlrmPlan());
    ASSERT_TRUE(r.valid);
    EXPECT_NEAR(r.serializedTime * 1e3, 67.40, 67.40 * 0.15);
    EXPECT_NEAR(r.exposedFraction(), 0.8237, 0.10);
    EXPECT_NEAR(r.throughput() / 1e6, 1.2, 1.2 * 0.10);
}

// Fig. 7's network-scaling effect: the single-node system rides
// NVLink for the All2All while the 16-node system is bound by the
// RoCE fabric ("Effective All2All BW = slowest interconnect", §IV-C).
// DLRM-A itself cannot fit on one node (792.7B embedding params), so
// the fabric contrast is pinned at the collective-model layer, plus
// the All2All share of the feasible 128-GPU run.
TEST(FigValidation, Fig7_NetworkScalingAcrossNodeCounts)
{
    const ClusterSpec one_node =
        hw_zoo::dlrmTrainingSystem().withNumNodes(1);
    const ClusterSpec full = hw_zoo::dlrmTrainingSystem();
    const TopologyCollectiveModel nvlink(one_node);
    const TopologyCollectiveModel roce(full);

    const double bytes = 1e9;
    // Effective All2All bandwidth: tensor bytes over modeled time.
    const double bw8 =
        bytes / nvlink.time(Collective::All2All, CommScope::Global, bytes);
    const double bw128 =
        bytes / roce.time(Collective::All2All, CommScope::Global, bytes);
    // Single-node: ~NVLink effective rate. 16-node: pinned near the
    // RoCE per-device rate — more than an order of magnitude apart.
    EXPECT_NEAR(bw8, one_node.effIntraBandwidth(),
                one_node.effIntraBandwidth() * 0.15);
    EXPECT_NEAR(bw128, full.effInterBandwidth(),
                full.effInterBandwidth() * 0.15);
    EXPECT_GT(bw8, 10.0 * bw128);

    // On the feasible 128-GPU run, the exposed fabric shows up as a
    // large serialized All2All share, partially hidden by overlap.
    PerfModel model(full);
    PerfReport r = model.evaluate(model_zoo::dlrmA(),
                                  TaskSpec::preTraining(), dlrmPlan());
    ASSERT_TRUE(r.valid);
    EXPECT_GT(breakdown(r, EventCategory::All2All),
              0.15 * r.serializedTime);
    EXPECT_LT(r.iterationTime, r.serializedTime);
    EXPECT_GT(r.exposedFraction(), 0.5);
}

// Fig. 8: ViT FSDP training on AWS p4d. MFU stays within the modeled
// SM ceiling everywhere and degrades with scale-out (FSDP gathers ride
// the 50 Gbps-per-GPU EFA), matching the figure's spread.
TEST(FigValidation, Fig8_VitMfuWithinCeilingAndFallsWithScale)
{
    using model_zoo::VitSize;
    const double sm_ceiling = 0.72;
    for (VitSize size : {VitSize::L, VitSize::H}) {
        double prev_mfu = 1.0;
        for (int gpus : {32, 2048}) {
            ModelDesc model = model_zoo::vit(size, 4096);
            ClusterSpec cluster = hw_zoo::awsP4d(gpus / 8);
            ASSERT_EQ(cluster.topology, nullptr);

            PerfModelOptions opts;
            opts.smModel = SmUtilizationModel(sm_ceiling, 6e10);
            opts.keepTimeline = false;
            PerfModel madmax(cluster, opts);
            PerfReport r =
                madmax.evaluate(model, TaskSpec::preTraining(),
                                ParallelPlan::fsdpBaseline());
            ASSERT_TRUE(r.valid)
                << model.name << " on " << gpus << " GPUs";

            const double model_flops = 3.0 *
                model.graph.totals().forwardFlopsPerSample * 4096.0;
            const double mfu = model_flops /
                (r.iterationTime *
                 cluster.aggregatePeakFlops(model.computeDtype));
            EXPECT_GT(mfu, 0.0) << model.name << " @" << gpus;
            EXPECT_LT(mfu, sm_ceiling) << model.name << " @" << gpus;
            // Scaling out shrinks the per-device batch and exposes
            // the EFA-bound gathers: MFU must fall.
            EXPECT_LT(mfu, prev_mfu) << model.name << " @" << gpus;
            prev_mfu = mfu;
        }
    }
}

} // namespace madmax
