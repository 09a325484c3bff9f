/**
 * @file
 * The flat two-scope collective closed forms (§IV-C), kept as the
 * test oracle for TopologyCollectiveModel: collectives are priced from
 * the cluster's effective intra- and inter-node bandwidths alone.
 *
 * Production prices every cluster on a tier stack, using
 * TopologySpec::flatEquivalent when none is attached. The differential
 * suite checks that this stack prices every (kind, scope, bytes,
 * algorithm) bitwise equal to these closed forms. The production model
 * is therefore checked against these formulas, not against itself.
 * Test-only: never linked into the library.
 */

#ifndef MADMAX_TESTS_REFERENCE_FLAT_COLLECTIVE_HH
#define MADMAX_TESTS_REFERENCE_FLAT_COLLECTIVE_HH

#include "collective/collective.hh"
#include "hw/cluster.hh"

namespace madmax
{
namespace reference
{

/** The flat closed forms. Pure function of the cluster spec. */
class CollectiveModel
{
  public:
    explicit CollectiveModel(const ClusterSpec &cluster,
                             CollectiveLatency latency = {},
                             AllReduceAlgorithm algorithm =
                                 AllReduceAlgorithm::Auto);

    /** Execution time in seconds for the collective. */
    double time(Collective kind, CommScope scope, double bytes) const;

    /** Group size at @p scope (d, m, or n). */
    int groupSize(CommScope scope) const;

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

} // namespace reference
} // namespace madmax

#endif // MADMAX_TESTS_REFERENCE_FLAT_COLLECTIVE_HH
