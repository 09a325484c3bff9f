#include "collective/topology_model.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

namespace
{

/** Ring traffic fraction: each device moves (g-1)/g of the tensor. */
double
ringFactor(int group)
{
    return group <= 1
        ? 0.0
        : static_cast<double>(group - 1) / static_cast<double>(group);
}

/** The stack @p cluster is priced on: its attached topology, or the
 *  flat-equivalent two-tier stack. */
TopologySpec
stackFor(const ClusterSpec &cluster)
{
    cluster.validate(); // Includes topology shape consistency.
    return cluster.topology ? *cluster.topology
                            : TopologySpec::flatEquivalent(cluster);
}

} // namespace

TopologyCollectiveModel::TopologyCollectiveModel(
    TopologySpec spec, CollectiveLatency latency,
    AllReduceAlgorithm algorithm)
    : spec_(std::move(spec)), algorithm_(algorithm)
{
    spec_.validate();
    bw_.reserve(spec_.levels.size());
    alpha_.reserve(spec_.levels.size());
    for (size_t i = 0; i < spec_.levels.size(); ++i) {
        const TopologyLevel &lv = spec_.levels[i];
        bw_.push_back(lv.effBandwidth());
        // Inherit-latency levels resolve to the flat constants: the
        // scale-up tier pays intraAlpha, scale-out tiers interAlpha.
        if (lv.linkLatency >= 0.0)
            alpha_.push_back(lv.linkLatency);
        else
            alpha_.push_back(i == 0 ? latency.intraAlpha
                                    : latency.interAlpha);
    }
}

TopologyCollectiveModel::TopologyCollectiveModel(
    const ClusterSpec &cluster, CollectiveLatency latency,
    AllReduceAlgorithm algorithm)
    : TopologyCollectiveModel(stackFor(cluster), latency, algorithm)
{}

TopologyCollectiveModel::Span
TopologyCollectiveModel::spanOf(CommScope scope) const
{
    switch (scope) {
      case CommScope::Intra: return Span{0, 1};
      case CommScope::Inter: return Span{1, spec_.levels.size()};
      case CommScope::Global: return Span{0, spec_.levels.size()};
    }
    panic("spanOf: unknown CommScope");
}

double
TopologyCollectiveModel::alphaSteps(size_t level, int steps) const
{
    if (steps <= 0)
        return 0.0;
    return alpha_[level] * static_cast<double>(steps);
}

int
TopologyCollectiveModel::spanSize(size_t lo, size_t hi) const
{
    int n = 1;
    for (size_t k = lo; k < hi; ++k)
        n *= spec_.levels[k].fan;
    return n;
}

int
TopologyCollectiveModel::maxFan(size_t lo, size_t hi) const
{
    int f = 1;
    for (size_t k = lo; k < hi; ++k)
        f = std::max(f, spec_.levels[k].fan);
    return f;
}

double
TopologyCollectiveModel::minBw(size_t lo, size_t hi) const
{
    double bw = bw_[lo];
    for (size_t k = lo + 1; k < hi; ++k)
        bw = std::min(bw, bw_[k]);
    return bw;
}

size_t
TopologyCollectiveModel::topAlphaLevel(size_t lo, size_t hi) const
{
    for (size_t k = hi; k-- > lo + 1;) {
        if (spec_.levels[k].fan > 1)
            return k;
    }
    // No populated tier above lo: still charge the first scale-out
    // tier's alpha (the flat closed forms' Global-scope behavior).
    return lo + 1;
}

double
TopologyCollectiveModel::agLevel(size_t level, double bytes) const
{
    const int g = spec_.levels[level].fan;
    if (g <= 1)
        return 0.0;
    return bytes * ringFactor(g) / bw_[level] + alphaSteps(level, g - 1);
}

double
TopologyCollectiveModel::arLevel(size_t level, double bytes,
                                 CollAlgo *chosen) const
{
    const int g = spec_.levels[level].fan;
    if (g <= 1)
        return 0.0;
    const double bandwidth = bw_[level];
    // Ring: bandwidth-optimal volume, (g-1)-step latency.
    double ring = 2.0 * bytes * ringFactor(g) / bandwidth +
        alphaSteps(level, 2 * (g - 1));
    if (algorithm_ == AllReduceAlgorithm::Ring) {
        *chosen = CollAlgo::Ring;
        return ring;
    }
    // Tree (reduce + broadcast down a pipelined binary tree):
    // logarithmic latency steps, but the tree sustains only ~90% of
    // the ring's bus bandwidth on large messages (NCCL behavior).
    int log_steps = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(g))));
    double tree = 2.0 * bytes / (bandwidth * 0.9) +
        alphaSteps(level, 2 * log_steps);
    if (algorithm_ == AllReduceAlgorithm::Tree) {
        *chosen = CollAlgo::Tree;
        return tree;
    }
    // Auto: the NCCL tuner picks per message size — small messages
    // are latency-bound (tree), large ones bandwidth-bound (ring).
    *chosen = ring <= tree ? CollAlgo::Ring : CollAlgo::Tree;
    return std::min(ring, tree);
}

double
TopologyCollectiveModel::agSpan(size_t lo, size_t hi, double bytes) const
{
    if (hi - lo == 1)
        return agLevel(lo, bytes);
    // Bandwidth-optimal multi-tier shape: the fan parallel rails of a
    // tier each gather a 1/fan stripe across the outer tiers, then
    // children exchange stripes within the tier.
    double t = 0.0;
    const int fan = spec_.levels[lo].fan;
    if (spanSize(lo + 1, hi) > 1)
        t += agSpan(lo + 1, hi, bytes / fan);
    t += agLevel(lo, bytes);
    return t;
}

double
TopologyCollectiveModel::rsSpan(size_t lo, size_t hi, double bytes) const
{
    // Ring ReduceScatter moves the same volume as AllGather; the
    // multi-tier shape mirrors agSpan with the tier order reversed
    // (scatter inward first, then rail-parallel across outer tiers).
    if (hi - lo == 1)
        return agLevel(lo, bytes);
    double t = agLevel(lo, bytes);
    const int fan = spec_.levels[lo].fan;
    if (spanSize(lo + 1, hi) > 1)
        t += rsSpan(lo + 1, hi, bytes / fan);
    return t;
}

double
TopologyCollectiveModel::arSpan(size_t lo, size_t hi, double bytes,
                                CollAlgo *chosen) const
{
    if (hi - lo == 1)
        return arLevel(lo, bytes, chosen);
    // Hierarchical: ReduceScatter on the innermost tier, AllReduce
    // across the outer tiers on the 1/fan-sized shard, AllGather back
    // on the innermost tier.
    *chosen = CollAlgo::Hierarchical;
    const int fan = spec_.levels[lo].fan;
    double t = agLevel(lo, bytes);
    CollAlgo sub = CollAlgo::None;
    t += arSpan(lo + 1, hi, fan > 1 ? bytes / fan : bytes, &sub);
    t += agLevel(lo, bytes);
    return t;
}

double
TopologyCollectiveModel::a2aSpan(size_t lo, size_t hi,
                                 double bytes) const
{
    const int n = spanSize(lo, hi);
    if (n <= 1)
        return 0.0;
    if (hi - lo == 1) {
        return bytes * ringFactor(n) / bw_[lo] + alphaSteps(lo, n - 1);
    }
    // Point-to-point Send/Recv pairs: bound by the slowest fabric
    // spanned; spans confined to one node ride the scale-up tier.
    const int upper = spanSize(lo + 1, hi);
    const double bw = upper > 1 ? minBw(lo, hi) : bw_[lo];
    const size_t alpha_level = upper > 1 ? topAlphaLevel(lo, hi) : lo;
    return bytes * ringFactor(n) / bw +
        alphaSteps(alpha_level, maxFan(lo, hi) - 1);
}

double
TopologyCollectiveModel::bcastSpan(size_t lo, size_t hi,
                                   double bytes) const
{
    const int g = spanSize(lo, hi);
    if (g <= 1)
        return 0.0;
    double bw;
    size_t alpha_level;
    if (hi - lo == 1) {
        bw = bw_[lo];
        alpha_level = lo;
    } else {
        const int upper = spanSize(lo + 1, hi);
        bw = upper > 1 ? minBw(lo, hi) : bw_[lo];
        // Multi-tier spans always pay a scale-out alpha, even when
        // the outer tiers are unpopulated (the flat closed forms'
        // Global broadcast behavior).
        alpha_level = topAlphaLevel(lo, hi);
    }
    int steps = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(g))));
    return bytes / bw + alphaSteps(alpha_level, steps);
}

double
TopologyCollectiveModel::time(Collective kind, CommScope scope,
                              double bytes) const
{
    return estimate(kind, scope, bytes).seconds;
}

CollectiveEstimate
TopologyCollectiveModel::estimate(Collective kind, CommScope scope,
                                  double bytes) const
{
    if (bytes < 0.0) {
        fatal(strfmt("collective %s: negative byte count",
                     madmax::toString(kind).c_str()));
    }
    CollectiveEstimate est;
    if (bytes == 0.0 || groupSize(scope) <= 1)
        return est;
    const Span sp = spanOf(scope);
    switch (kind) {
      case Collective::AllReduce:
        est.seconds = arSpan(sp.lo, sp.hi, bytes, &est.algo);
        return est;
      case Collective::AllGather:
        est.seconds = agSpan(sp.lo, sp.hi, bytes);
        est.algo = sp.hi - sp.lo == 1 ? CollAlgo::Ring
                                      : CollAlgo::Hierarchical;
        return est;
      case Collective::ReduceScatter:
        est.seconds = rsSpan(sp.lo, sp.hi, bytes);
        est.algo = sp.hi - sp.lo == 1 ? CollAlgo::Ring
                                      : CollAlgo::Hierarchical;
        return est;
      case Collective::All2All:
        est.seconds = a2aSpan(sp.lo, sp.hi, bytes);
        est.algo = CollAlgo::PointToPoint;
        return est;
      case Collective::Broadcast:
        est.seconds = bcastSpan(sp.lo, sp.hi, bytes);
        est.algo = CollAlgo::Tree;
        return est;
    }
    panic("estimate: unknown Collective");
}

int
TopologyCollectiveModel::groupSize(CommScope scope) const
{
    switch (scope) {
      case CommScope::Intra: return spec_.levels[0].fan;
      case CommScope::Inter: return spec_.scaleOutFan();
      case CommScope::Global: return spec_.totalDevices();
    }
    panic("groupSize: unknown CommScope");
}

} // namespace madmax
