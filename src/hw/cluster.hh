/**
 * @file
 * Distributed-system description: a cluster is numNodes nodes of
 * devicesPerNode identical devices, an intra-node fabric and an
 * inter-node fabric, plus the utilization factors that derate peak
 * rates into achievable ones (the paper's tunable calibration knobs,
 * §IV-B/§IV-C). Mirrors Table III.
 */

#ifndef MADMAX_HW_CLUSTER_HH
#define MADMAX_HW_CLUSTER_HH

#include <memory>
#include <string>
#include <vector>

#include "hw/device.hh"

namespace madmax
{

struct TopologySpec;

/** Interconnect technology; determines which fabric a collective rides. */
enum class FabricKind
{
    NVLink,      ///< NVSwitch/NVLink style scale-up fabric.
    InfiniBand,  ///< IB scale-out fabric.
    RoCE,        ///< RDMA over Converged Ethernet scale-out fabric.
    XGMI,        ///< AMD Infinity Fabric scale-up links.
    Ethernet,    ///< Plain (possibly EFA) Ethernet scale-out.
    PCIe,        ///< Host-mediated fallback.
};

std::string toString(FabricKind kind);

/**
 * Achievable-fraction-of-peak factors in [0, 1]. The paper quotes ~70%
 * SM utilization for dense layers and ~80% HBM utilization for
 * embedding bags on A100s; link utilizations absorb NCCL protocol
 * overheads measured on real systems.
 */
struct UtilizationSpec
{
    double compute = 0.70;    ///< GEMM/attention SM utilization.
    double hbm = 0.80;        ///< Embedding-bag HBM efficiency.
    double intraLink = 0.80;  ///< NVLink-class achievable fraction.
    double interLink = 0.65;  ///< NIC-class achievable fraction.
};

/**
 * One homogeneous pool of devices inside a mixed-generation cluster:
 * numNodes nodes of devicesPerNode identical devices behind a shared
 * scale-up fabric. Groups talk to each other over the cluster-level
 * inter-node fabric (mixed fleets are stitched at the scale-out tier;
 * nobody NVLinks an A100 to an H100).
 */
struct DeviceGroup
{
    std::string name;
    DeviceSpec device;
    int devicesPerNode = 8;
    int numNodes = 1;
    FabricKind intraFabric = FabricKind::NVLink;

    int numDevices() const { return devicesPerNode * numNodes; }
};

/**
 * A homogeneous two-level distributed system. The two-level shape
 * (devices within a node, nodes within a cluster) is what makes
 * hierarchical (intra, inter) parallelization strategies meaningful.
 */
struct ClusterSpec
{
    std::string name;
    DeviceSpec device;
    int devicesPerNode = 8;
    int numNodes = 1;
    FabricKind intraFabric = FabricKind::NVLink;
    FabricKind interFabric = FabricKind::InfiniBand;
    UtilizationSpec util;

    /**
     * Optional hierarchical topology (hw/topology.hh). When set, the
     * collective model (TopologyCollectiveModel) prices communication
     * on this explicit tier stack, and validate() additionally checks
     * shape consistency (scale-up fan == devicesPerNode, scale-out
     * fan product == numNodes). Null prices the cluster on
     * TopologySpec::flatEquivalent, the two-tier stack built from the
     * flat fields above.
     *
     * Topology levels carry absolute link rates: the Fig. 19 scaling
     * builders below derate only the flat device fields, never an
     * attached explicit topology.
     */
    std::shared_ptr<const TopologySpec> topology;

    /**
     * Mixed-generation device pools. Empty means the classic
     * homogeneous cluster described by the flat fields above — every
     * existing config, report, and golden is unchanged. Non-empty
     * makes the cluster heterogeneous: the flat device/count fields
     * are ignored, each group is an island evaluable on its own via
     * groupCluster(), and only phase/layer placement across islands
     * (dse/pareto_engine.hh) knows how to price the whole cluster —
     * PerfModel on a heterogeneous ClusterSpec is an error.
     */
    std::vector<DeviceGroup> groups;

    /** True when the cluster is a mixed-generation fleet. */
    bool isHeterogeneous() const { return !groups.empty(); }

    /**
     * The i-th device group as a standalone homogeneous cluster
     * (cluster-level inter fabric and utilizations, group-level
     * everything else). Valid only for heterogeneous clusters.
     */
    ClusterSpec groupCluster(int i) const;

    /** Total device count (= Table III "# nodes" x "devices per node"). */
    int numDevices() const { return devicesPerNode * numNodes; }

    /**
     * Device count including groups: sum of group sizes when
     * heterogeneous, numDevices() otherwise.
     */
    int totalDevices() const;

    /** Achievable per-device intra-node bandwidth, bytes/s. */
    double effIntraBandwidth() const;

    /** Achievable per-device inter-node bandwidth, bytes/s. */
    double effInterBandwidth() const;

    /** Aggregate peak FLOP/s across the cluster for @p dtype. */
    double aggregatePeakFlops(DataType dtype) const;

    /** Validate invariants (positive counts/rates). @throws ConfigError */
    void validate() const;

    /**
     * @name Scaled variants
     * Builders for the Fig. 19 future-technology scaling study: return a
     * copy with one capability multiplied by @p factor.
     */
    /// @{
    ClusterSpec withComputeScale(double factor) const;
    ClusterSpec withHbmCapacityScale(double factor) const;
    ClusterSpec withHbmBandwidthScale(double factor) const;
    ClusterSpec withIntraBandwidthScale(double factor) const;
    ClusterSpec withInterBandwidthScale(double factor) const;
    /// @}

    /** Copy with a different node count (e.g. 8- vs 128-GPU
     *  validation). An attached topology cannot describe the resized
     *  cluster, so the copy drops it and is priced on the
     *  flat-equivalent stack. */
    ClusterSpec withNumNodes(int nodes) const;
};

} // namespace madmax

#endif // MADMAX_HW_CLUSTER_HH
