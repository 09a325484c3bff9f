/**
 * @file
 * Hardware zoo: the device datasheets of Table IV, the two baseline
 * training systems of Table III, and the public-cloud instance types
 * used by Figs. 1 and 16. All functions return fresh copies so callers
 * can freely mutate (e.g. for the scaling studies).
 */

#ifndef MADMAX_HW_HW_ZOO_HH
#define MADMAX_HW_HW_ZOO_HH

#include <string>
#include <vector>

#include "hw/cluster.hh"
#include "hw/device.hh"
#include "hw/topology.hh"

namespace madmax::hw_zoo
{

/** @name Devices (Table IV + V100 for the cloud study) */
/// @{
DeviceSpec a100_40(); ///< NVIDIA A100 40 GB (312/156 TFLOPS, 1.6 TB/s).
DeviceSpec a100_80(); ///< NVIDIA A100 80 GB (2.0 TB/s HBM).
DeviceSpec h100();    ///< NVIDIA H100 SXM (756/378 TFLOPS, 2 TB/s).
DeviceSpec h100SuperPod(); ///< H100 with NVLink-based scale-out (9x A100 BW).
DeviceSpec v100_16(); ///< NVIDIA V100 16 GB (125 TFLOPS fp16, 0.9 TB/s).
DeviceSpec v100_32(); ///< NVIDIA V100 32 GB.
DeviceSpec mi250x();  ///< AMD Instinct MI250X.
DeviceSpec mi300x();  ///< AMD Instinct MI300X.
DeviceSpec gaudi2();  ///< Intel Gaudi2.
/// @}

/** @name Baseline training systems (Table III) */
/// @{

/**
 * DLRM training system [Mudigere et al., ZionEX]: 16 nodes x 8 A100
 * 40 GB, RoCE scale-out, 20 PFLOPS aggregate TF32.
 */
ClusterSpec dlrmTrainingSystem();

/**
 * LLM training system [Touvron et al.]: 256 nodes x 8 A100 80 GB,
 * InfiniBand scale-out, 319 PFLOPS aggregate TF32.
 */
ClusterSpec llmTrainingSystem();
/// @}

/** @name Simulated 128-device platforms (Figs. 17, 18) */
/// @{
ClusterSpec h100System(int num_nodes = 16);
ClusterSpec h100SuperPodSystem(int num_nodes = 16);
ClusterSpec mi250xSystem(int num_nodes = 16);
ClusterSpec mi300xSystem(int num_nodes = 16);
ClusterSpec gaudi2System(int num_nodes = 16);
/// @}

/**
 * Mixed-generation inference fleet: an H100 pool next to an A100 80 GB
 * pool behind a shared InfiniBand scale-out fabric — the
 * serve-LLMs-on-what-the-fleet-has scenario (pipeline across unequal
 * hosts). The H100 pool's FLOPS suit compute-bound prefill; the A100
 * pool's aggregate HBM suits memory-bound decode. Heterogeneous:
 * evaluable only through per-group islands / phase placement, not
 * PerfModel directly.
 */
ClusterSpec mixedInferenceFleet(int h100_nodes = 2, int a100_nodes = 4);

/**
 * A public-cloud GPU instance type: a ClusterSpec template plus
 * pricing-free metadata used by the cloud-deployment studies.
 */
struct CloudInstance
{
    std::string name;      ///< e.g. "p4d.24xlarge".
    ClusterSpec cluster;   ///< One node's shape; scale numNodes to size.
    double a100PeakRatio;  ///< device peak / A100 peak (GPU-hour norm).
};

/**
 * Cloud instance catalog for Figs. 1 and 16: three GPU generations with
 * widely varying inter-node bandwidths.
 *
 * @param num_nodes Node count applied to every instance type.
 */
std::vector<CloudInstance> cloudInstances(int num_nodes = 16);

/** AWS p4d.24xlarge (8x A100 40 GB, 400 Gbps EFA) used by Fig. 8. */
ClusterSpec awsP4d(int num_nodes);

/** @name Datacenter-class topology presets
 *
 * Tier stacks shaped like production training fabrics, derived from a
 * cluster's flat bandwidths so they attach to any zoo system. All
 * presets keep level 0 = the cluster's scale-up domain and multiply
 * the scale-out fans to exactly numNodes (rail size is clamped to the
 * nearest divisor).
 */
/// @{

/** The two-tier stack that reproduces the flat closed forms
 *  bit-for-bit (TopologySpec::flatEquivalent under a zoo-friendly
 *  name). */
TopologySpec flatTopologyPreset(const ClusterSpec &cluster);

/**
 * Three tiers: node -> rail -> pod. Rail groups of @p rail_nodes nodes
 * get doubled-up links (rails = 2, the rail-optimized leaf switches);
 * the pod tier carries the same per-device fabric bandwidth but is
 * 2:1 oversubscribed (sharers = 2).
 */
TopologySpec dcRailTopology(const ClusterSpec &cluster,
                            int rail_nodes = 4);

/**
 * Four tiers: node -> rail -> pod -> fleet. Rails as in
 * dcRailTopology; the remaining scale-out fan splits into pod x fleet
 * (pod = largest divisor <= sqrt of the remainder) with the fleet
 * spine 4:1 oversubscribed (sharers = 4).
 */
TopologySpec dcPodFleetTopology(const ClusterSpec &cluster,
                                int rail_nodes = 4);

/** @p cluster with @p topology attached (validated against it). */
ClusterSpec withTopology(ClusterSpec cluster, TopologySpec topology);

/// @}

} // namespace madmax::hw_zoo

#endif // MADMAX_HW_HW_ZOO_HH
