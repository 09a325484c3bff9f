/**
 * @file
 * Communication-collective cost model (§IV-C "Estimating Communication
 * Collective Execution").
 *
 * Collectives run at one of three scopes on the two-level cluster:
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

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.hh"
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

/**
 * Pluggable collective cost model: maps (collective, scope, tensor
 * bytes) to seconds on one cluster. The flat two-scope model below is
 * the registered default; the topology-aware model
 * (collective/topology_model.hh) prices against an explicit tier
 * stack. Implementations are immutable after construction and safe
 * for concurrent time()/estimate() calls.
 */
class CollectiveCostModel
{
  public:
    virtual ~CollectiveCostModel() = default;

    /** Execution time in seconds for the collective. */
    virtual double time(Collective kind, CommScope scope,
                        double bytes) const = 0;

    /**
     * time() plus the chosen algorithm. The default forwards to
     * time() with no annotation (CollAlgo::None) — exactly what the
     * flat model reports, so flat-default traces never change.
     */
    virtual CollectiveEstimate estimate(Collective kind, CommScope scope,
                                        double bytes) const
    {
        return CollectiveEstimate{time(kind, scope, bytes),
                                  CollAlgo::None};
    }

    /** Group size at @p scope (d, m, or n). */
    virtual int groupSize(CommScope scope) const = 0;

    /**
     * Stable fingerprint of everything the model prices from (model
     * kind, shapes, bandwidths, latencies, algorithm choice). Two
     * models that could ever disagree on any (kind, scope, bytes)
     * must have different identities — EvalContext keys its
     * collective-time memo and the EvalEngine its report cache on
     * this, so two models in one process cannot alias entries.
     */
    virtual uint64_t identity() const = 0;

    /** Registry name of the implementation ("flat", "topology"). */
    virtual std::string name() const = 0;

    /**
     * Effective ring bandwidth the collective sees, bytes/s — the
     * paper's "Effective AllReduce BW" / "Effective All2All BW"
     * diagnostic: tensor bytes divided by modeled time.
     */
    double effectiveBandwidth(Collective kind, CommScope scope,
                              double bytes) const;
};

/**
 * The flat two-scope cost model (the original §IV-C closed forms):
 * collectives are priced from the cluster's effective intra- and
 * inter-node bandwidths alone. Pure function of the cluster spec;
 * cheap to copy. Registered as the "flat" default — every golden
 * report and bench baseline is derived from this model.
 */
class CollectiveModel : public CollectiveCostModel
{
  public:
    explicit CollectiveModel(const ClusterSpec &cluster,
                             CollectiveLatency latency = {},
                             AllReduceAlgorithm algorithm =
                                 AllReduceAlgorithm::Auto);

    double time(Collective kind, CommScope scope,
                double bytes) const override;

    /** Group size at @p scope (d, m, or n). */
    int groupSize(CommScope scope) const override;

    uint64_t identity() const override;

    std::string name() const override { return "flat"; }

  private:
    double allReduce(CommScope scope, double bytes) const;

    /** One-level AllReduce under the configured algorithm. */
    double allReduceLevel(double bytes, int group, double bandwidth,
                          CommScope alpha_scope) const;

    double allGather(CommScope scope, double bytes) const;
    double reduceScatter(CommScope scope, double bytes) const;
    double allToAll(CommScope scope, double bytes) const;
    double broadcast(CommScope scope, double bytes) const;

    /** Latency (alpha) term for a ring of @p steps on @p scope. */
    double alphaTerm(CommScope scope, int steps) const;

    ClusterSpec cluster_;
    CollectiveLatency latency_;
    AllReduceAlgorithm algorithm_;
};

/**
 * @name Cost-model registry
 * Name -> factory registry behind the pluggable interface. "flat"
 * (CollectiveModel) is pre-registered as the default; "topology"
 * (TopologyCollectiveModel) registers itself from its own translation
 * unit. Registration normally happens during static initialization;
 * lookups are mutex-guarded and safe from concurrent EvalContext
 * construction.
 */
/// @{

using CollectiveModelFactory = std::unique_ptr<const CollectiveCostModel>
    (*)(const ClusterSpec &cluster, CollectiveLatency latency,
        AllReduceAlgorithm algorithm);

/** Register @p factory under @p name; returns false (and keeps the
 *  existing entry) when the name is already taken. */
bool registerCollectiveModel(const std::string &name,
                             CollectiveModelFactory factory);

/** Registered model names, sorted. */
std::vector<std::string> collectiveModelNames();

/** Instantiate the model registered as @p name.
 *  @throws ConfigError on unknown names. */
std::unique_ptr<const CollectiveCostModel> makeCollectiveModel(
    const std::string &name, const ClusterSpec &cluster,
    CollectiveLatency latency = {},
    AllReduceAlgorithm algorithm = AllReduceAlgorithm::Auto);

/**
 * The model a cluster should be priced with: @p override when
 * non-empty (a registry name, e.g. PerfModelOptions::collectiveModel),
 * else "topology" when the cluster carries a TopologySpec, else the
 * flat default. This is the single selection point every evaluation
 * goes through (EvalContext). Defined in topology_model.cc so the topology model's
 * registration always links.
 */
std::unique_ptr<const CollectiveCostModel> makeCollectiveModelFor(
    const ClusterSpec &cluster, CollectiveLatency latency = {},
    AllReduceAlgorithm algorithm = AllReduceAlgorithm::Auto,
    const std::string &override = {});

/// @}

/**
 * Devices a collective at @p scope spans on @p cluster: the topology
 * tier fans when the cluster carries a TopologySpec (validated
 * consistent with the flat shape), else devicesPerNode / numNodes /
 * numDevices(). The CommPlanner derives its level group sizes from
 * this, so planned volumes follow the topology description.
 */
int scopeSpan(const ClusterSpec &cluster, CommScope scope);

} // namespace madmax

#endif // MADMAX_COLLECTIVE_COLLECTIVE_HH
