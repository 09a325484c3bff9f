/**
 * @file
 * Communication-collective vocabulary (§IV-C "Estimating Communication
 * Collective Execution"): collective kinds, scopes, latency constants,
 * and the AllReduce algorithm choice. The pricer itself is
 * TopologyCollectiveModel (collective/topology_model.hh).
 *
 * Collectives run at one of three scopes on the cluster:
 *
 *  - Intra:  among the d devices of one node, on the scale-up fabric.
 *  - Inter:  among the m nodes (one "rail" device per node), on the
 *            scale-out fabric.
 *  - Global: among all n = d x m devices; bandwidth-optimal
 *            hierarchical decomposition for AllReduce / AllGather /
 *            ReduceScatter, slowest-link bound for All2All (the NCCL
 *            All2All is point-to-point Send/Recv, so it cannot exploit
 *            the faster fabric; §IV-C).
 *
 * Size convention: `bytes` is the full logical tensor size T.
 *  - AllReduce(T): every device starts and ends with a T-byte buffer.
 *  - AllGather(T): result is T; each device contributes T/g.
 *  - ReduceScatter(T): input is T per device; result shard is T/g.
 *  - All2All(T): every device sends T bytes total, spread over peers.
 */

#ifndef MADMAX_COLLECTIVE_COLLECTIVE_HH
#define MADMAX_COLLECTIVE_COLLECTIVE_HH

#include <string>

#include "trace/trace_event.hh" // CollAlgo

namespace madmax
{

/** Collective flavors MAD-Max models. */
enum class Collective
{
    AllReduce,
    AllGather,
    ReduceScatter,
    All2All,
    Broadcast,
};

/** Which slice of the cluster a collective spans. */
enum class CommScope
{
    Intra,   ///< Devices within one node.
    Inter,   ///< One device per node, across nodes.
    Global,  ///< All devices (hierarchical).
};

std::string toString(Collective kind);
std::string toString(CommScope scope);

/** Per-message launch/latency constants (alpha term, seconds/step). */
struct CollectiveLatency
{
    double intraAlpha = 1.5e-6; ///< Per-step latency on scale-up links.
    double interAlpha = 5e-6;   ///< Per-step latency on scale-out links.
};

/**
 * AllReduce algorithm selection (§IV-C: the effective-bandwidth ratio
 * depends on "NCCL implementation version (e.g., ring vs. tree)").
 * Ring is bandwidth-optimal but pays (g-1) latency steps; tree pays a
 * small bandwidth constant for logarithmic latency.
 */
enum class AllReduceAlgorithm
{
    Ring,
    Tree,
    Auto, ///< Cheapest of the two per call — NCCL's tuner behavior.
};

std::string toString(AllReduceAlgorithm algo);

/** A priced collective: modeled seconds plus the algorithm chosen. */
struct CollectiveEstimate
{
    double seconds = 0.0;
    CollAlgo algo = CollAlgo::None;
};

} // namespace madmax

#endif // MADMAX_COLLECTIVE_COLLECTIVE_HH
