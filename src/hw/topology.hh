/**
 * @file
 * Hierarchical network-topology description: an explicit tier stack
 * (e.g. node -> rail -> pod -> fleet) with per-link bandwidth,
 * latency, rail multiplicity, and a static congestion factor per
 * tier. This is the hardware-side half of the topology-aware
 * collective model (collective/topology_model.hh prices collectives
 * against it); a ClusterSpec optionally carries one.
 *
 * Level conventions:
 *  - levels[0] is the scale-up tier: its fan is the devices-per-node
 *    count and its links are the intra-node fabric.
 *  - levels[1..] are scale-out tiers, innermost first; the product of
 *    their fans is the node count. A CommScope::Inter collective
 *    spans levels 1.., CommScope::Global spans all levels.
 *  - linkBandwidth is the *achievable* per-device bytes/s on that
 *    tier's links (protocol overheads already derated, matching
 *    ClusterSpec::effIntraBandwidth / effInterBandwidth);
 *    effBandwidth() further scales it by rails / sharers.
 *  - linkLatency is the per-ring-step alpha in seconds; a negative
 *    value means "inherit the CollectiveLatency default" (intraAlpha
 *    for level 0, interAlpha above), resolved by the cost model.
 */

#ifndef MADMAX_HW_TOPOLOGY_HH
#define MADMAX_HW_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace madmax
{

struct ClusterSpec;

/** One tier of the hierarchy. */
struct TopologyLevel
{
    std::string name = "tier"; ///< e.g. "node", "rail", "pod", "fleet".

    /** Children per parent at this tier (level 0: devices per node). */
    int fan = 1;

    /** Achievable per-device bandwidth on this tier's links, bytes/s. */
    double linkBandwidth = 0.0;

    /** Per-step launch latency (alpha), seconds; < 0 inherits the
     *  CollectiveLatency default for the tier. */
    double linkLatency = -1.0;

    /** Parallel rails multiplying the link bandwidth. */
    int rails = 1;

    /** Static congestion: concurrent collectives sharing this tier's
     *  links (>= 1; an oversubscribed tier models as sharers > 1). */
    double sharers = 1.0;

    /** Bandwidth a single collective sees on this tier, bytes/s. */
    double effBandwidth() const
    {
        return linkBandwidth * static_cast<double>(rails) / sharers;
    }
};

/**
 * A validated tier stack. Immutable once attached to a ClusterSpec
 * (held by shared_ptr<const>); cheap to copy.
 */
struct TopologySpec
{
    std::string name = "topology";
    std::vector<TopologyLevel> levels; ///< [0] = scale-up tier.

    /** Product of all fans (= the cluster's device count). */
    int totalDevices() const;

    /** Product of the scale-out fans, levels 1.. (= node count). */
    int scaleOutFan() const;

    /** Structural invariants: 2..8 levels, fans >= 1, rails >= 1,
     *  sharers >= 1, positive bandwidth on tiers with fan > 1.
     *  @throws ConfigError */
    void validate() const;

    /** validate() plus shape consistency with @p cluster: levels[0]
     *  fan == devicesPerNode and scaleOutFan() == numNodes.
     *  @throws ConfigError */
    void validateAgainst(const ClusterSpec &cluster) const;

    /** Order-sensitive FNV-1a digest over every field — the identity
     *  engine cache keys embed. */
    uint64_t fingerprint() const;

    /**
     * The two-tier stack every cluster without an attached topology
     * is priced on: level 0 carries the cluster's effective
     * intra-node bandwidth with fan devicesPerNode, level 1 the
     * effective inter-node bandwidth with fan numNodes; latencies
     * inherit. The collective model prices every (collective, scope,
     * bytes) on this spec bit-identically to the flat two-scope
     * closed forms of §IV-C (checked by
     * tests/collective/test_topology_differential.cc).
     */
    static TopologySpec flatEquivalent(const ClusterSpec &cluster);
};

} // namespace madmax

#endif // MADMAX_HW_TOPOLOGY_HH
