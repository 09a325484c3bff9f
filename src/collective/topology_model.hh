/**
 * @file
 * The collective cost model: prices collectives on a hierarchical
 * tier stack (hw/topology.hh). Every cluster is priced here — on its
 * attached stack, or on TopologySpec::flatEquivalent when it carries
 * none.
 *
 * Scope mapping: CommScope::Intra spans level 0 (the scale-up tier),
 * CommScope::Inter spans levels 1.. (one device per node, across the
 * scale-out tiers), CommScope::Global spans the whole stack.
 *
 * Per-collective algorithm choice:
 *  - AllReduce within one tier: ring vs tree by message size
 *    (AllReduceAlgorithm::Auto, NCCL's tuner behavior) — the estimate
 *    reports which one won.
 *  - AllReduce / AllGather / ReduceScatter across tiers: hierarchical
 *    decomposition (reduce-scatter up, all-gather down), shard sizes
 *    shrinking by each tier's fan.
 *  - All2All: point-to-point Send/Recv bound by the slowest spanned
 *    tier.
 *  - Broadcast: pipelined tree over the spanned tiers.
 *
 * Congestion: each tier's `sharers` statically derates its links.
 *
 * Flat equivalence: on TopologySpec::flatEquivalent(cluster) every
 * recursion below reduces term-for-term — same expression shapes,
 * same accumulation order — to the flat two-scope closed forms of
 * §IV-C, so the price of every (kind, scope, bytes) is bitwise
 * identical to them. tests/collective/test_topology_differential.cc
 * enforces this across the model zoo against the closed forms kept
 * in tests/reference/flat_collective.hh.
 */

#ifndef MADMAX_COLLECTIVE_TOPOLOGY_MODEL_HH
#define MADMAX_COLLECTIVE_TOPOLOGY_MODEL_HH

#include <cstddef>
#include <vector>

#include "collective/collective.hh"
#include "hw/cluster.hh"
#include "hw/topology.hh"

namespace madmax
{

/**
 * Maps (collective, scope, tensor bytes) to seconds on one tier
 * stack. Immutable after construction and safe for concurrent
 * time()/estimate() calls.
 */
class TopologyCollectiveModel
{
  public:
    /** Price against @p spec directly (validated here). Inherit-
     *  latency levels (linkLatency < 0) resolve from @p latency. */
    explicit TopologyCollectiveModel(TopologySpec spec,
                                     CollectiveLatency latency = {},
                                     AllReduceAlgorithm algorithm =
                                         AllReduceAlgorithm::Auto);

    /** Price @p cluster (validated here): its attached topology, or
     *  TopologySpec::flatEquivalent(cluster) when none is attached. */
    explicit TopologyCollectiveModel(const ClusterSpec &cluster,
                                     CollectiveLatency latency = {},
                                     AllReduceAlgorithm algorithm =
                                         AllReduceAlgorithm::Auto);

    /** Execution time in seconds for the collective. */
    double time(Collective kind, CommScope scope, double bytes) const;

    /** time() plus the algorithm chosen. */
    CollectiveEstimate estimate(Collective kind, CommScope scope,
                                double bytes) const;

    /** Group size at @p scope (d, m, or n). */
    int groupSize(CommScope scope) const;

    const TopologySpec &spec() const { return spec_; }

  private:
    /** Half-open level range a scope spans. */
    struct Span
    {
        size_t lo;
        size_t hi;
    };

    Span spanOf(CommScope scope) const;

    double alphaSteps(size_t level, int steps) const;
    int spanSize(size_t lo, size_t hi) const;
    int maxFan(size_t lo, size_t hi) const;
    double minBw(size_t lo, size_t hi) const;

    /** Topmost level in (lo, hi) with fan > 1, else lo + 1 — the tier
     *  whose alpha a span-wide step pays. */
    size_t topAlphaLevel(size_t lo, size_t hi) const;

    /** Ring AllGather / ReduceScatter confined to one tier. */
    double agLevel(size_t level, double bytes) const;

    /** One-tier AllReduce under the configured algorithm. */
    double arLevel(size_t level, double bytes, CollAlgo *chosen) const;

    double agSpan(size_t lo, size_t hi, double bytes) const;
    double rsSpan(size_t lo, size_t hi, double bytes) const;
    double arSpan(size_t lo, size_t hi, double bytes,
                  CollAlgo *chosen) const;
    double a2aSpan(size_t lo, size_t hi, double bytes) const;
    double bcastSpan(size_t lo, size_t hi, double bytes) const;

    TopologySpec spec_;
    AllReduceAlgorithm algorithm_;
    std::vector<double> bw_;    ///< Per-level effective bytes/s.
    std::vector<double> alpha_; ///< Per-level resolved alpha, s/step.
};

} // namespace madmax

#endif // MADMAX_COLLECTIVE_TOPOLOGY_MODEL_HH
