#include "reference/flat_collective.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{
namespace reference
{

CollectiveModel::CollectiveModel(const ClusterSpec &cluster,
                                 CollectiveLatency latency,
                                 AllReduceAlgorithm algorithm)
    : cluster_(cluster), latency_(latency), algorithm_(algorithm)
{
    cluster_.validate();
}

int
CollectiveModel::groupSize(CommScope scope) const
{
    switch (scope) {
      case CommScope::Intra: return cluster_.devicesPerNode;
      case CommScope::Inter: return cluster_.numNodes;
      case CommScope::Global: return cluster_.numDevices();
    }
    panic("groupSize: unknown CommScope");
}

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

} // namespace

double
CollectiveModel::alphaTerm(CommScope scope, int steps) const
{
    if (steps <= 0)
        return 0.0;
    double alpha = scope == CommScope::Intra ? latency_.intraAlpha
                                             : latency_.interAlpha;
    return alpha * static_cast<double>(steps);
}

double
CollectiveModel::allReduceLevel(double bytes, int group, double bandwidth,
                                CommScope alpha_scope) const
{
    if (group <= 1)
        return 0.0;
    // Ring: bandwidth-optimal volume, (g-1)-step latency.
    double ring = 2.0 * bytes * ringFactor(group) / bandwidth +
        alphaTerm(alpha_scope, 2 * (group - 1));
    if (algorithm_ == AllReduceAlgorithm::Ring)
        return ring;
    // Tree (reduce + broadcast down a pipelined binary tree):
    // logarithmic latency steps, but the tree sustains only ~90% of
    // the ring's bus bandwidth on large messages (NCCL behavior).
    int log_steps = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(group))));
    double tree = 2.0 * bytes / (bandwidth * 0.9) +
        alphaTerm(alpha_scope, 2 * log_steps);
    if (algorithm_ == AllReduceAlgorithm::Tree)
        return tree;
    return std::min(ring, tree); // Auto: NCCL tuner picks the faster.
}

double
CollectiveModel::allReduce(CommScope scope, double bytes) const
{
    const int d = cluster_.devicesPerNode;
    const int m = cluster_.numNodes;
    switch (scope) {
      case CommScope::Intra:
        return allReduceLevel(bytes, d, cluster_.effIntraBandwidth(),
                              CommScope::Intra);
      case CommScope::Inter:
        return allReduceLevel(bytes, m, cluster_.effInterBandwidth(),
                              CommScope::Inter);
      case CommScope::Global: {
        // Hierarchical: ReduceScatter intra, AllReduce inter on the
        // 1/d-sized shard, AllGather intra (NCCL's two-level shape;
        // the "ratio of intra-node and inter-node bandwidth" in
        // §IV-C).
        double t = reduceScatter(CommScope::Intra, bytes);
        t += allReduce(CommScope::Inter, d > 1 ? bytes / d : bytes);
        t += allGather(CommScope::Intra, bytes);
        return t;
      }
    }
    panic("allReduce: unknown CommScope");
}

double
CollectiveModel::allGather(CommScope scope, double bytes) const
{
    const int d = cluster_.devicesPerNode;
    const int m = cluster_.numNodes;
    switch (scope) {
      case CommScope::Intra:
        if (d <= 1)
            return 0.0;
        return bytes * ringFactor(d) / cluster_.effIntraBandwidth() +
            alphaTerm(CommScope::Intra, d - 1);
      case CommScope::Inter:
        if (m <= 1)
            return 0.0;
        return bytes * ringFactor(m) / cluster_.effInterBandwidth() +
            alphaTerm(CommScope::Inter, m - 1);
      case CommScope::Global: {
        // Bandwidth-optimal two-level shape: the d parallel rails of
        // a node each gather a 1/d stripe across nodes (T/d per rail
        // over the NIC), then devices exchange stripes within the
        // node over the scale-up fabric.
        double t = 0.0;
        if (m > 1)
            t += allGather(CommScope::Inter, bytes / d);
        t += allGather(CommScope::Intra, bytes);
        return t;
      }
    }
    panic("allGather: unknown CommScope");
}

double
CollectiveModel::reduceScatter(CommScope scope, double bytes) const
{
    // Ring ReduceScatter moves the same volume as AllGather; the
    // global two-level shape mirrors allGather (intra reduce-scatter
    // to 1/d stripes, then rail-parallel reduce-scatter across
    // nodes).
    const int d = cluster_.devicesPerNode;
    const int m = cluster_.numNodes;
    switch (scope) {
      case CommScope::Intra:
      case CommScope::Inter:
        return allGather(scope, bytes);
      case CommScope::Global: {
        double t = allGather(CommScope::Intra, bytes);
        if (m > 1)
            t += allGather(CommScope::Inter, bytes / d);
        return t;
      }
    }
    panic("reduceScatter: unknown CommScope");
}

double
CollectiveModel::allToAll(CommScope scope, double bytes) const
{
    const int d = cluster_.devicesPerNode;
    const int m = cluster_.numNodes;
    switch (scope) {
      case CommScope::Intra:
        if (d <= 1)
            return 0.0;
        return bytes * ringFactor(d) / cluster_.effIntraBandwidth() +
            alphaTerm(CommScope::Intra, d - 1);
      case CommScope::Inter:
        if (m <= 1)
            return 0.0;
        return bytes * ringFactor(m) / cluster_.effInterBandwidth() +
            alphaTerm(CommScope::Inter, m - 1);
      case CommScope::Global: {
        if (cluster_.numDevices() <= 1)
            return 0.0;
        // Point-to-point Send/Recv pairs: bound by the slowest fabric
        // spanned (§IV-C). Single-node systems ride NVLink.
        double bw = m > 1
            ? std::min(cluster_.effIntraBandwidth(),
                       cluster_.effInterBandwidth())
            : cluster_.effIntraBandwidth();
        return bytes * ringFactor(cluster_.numDevices()) / bw +
            alphaTerm(m > 1 ? CommScope::Inter : CommScope::Intra,
                      std::max(d, m) - 1);
      }
    }
    panic("allToAll: unknown CommScope");
}

double
CollectiveModel::broadcast(CommScope scope, double bytes) const
{
    const int g = groupSize(scope);
    if (g <= 1)
        return 0.0;
    double bw = scope == CommScope::Intra ? cluster_.effIntraBandwidth()
                                          : cluster_.effInterBandwidth();
    if (scope == CommScope::Global) {
        bw = cluster_.numNodes > 1
            ? std::min(cluster_.effIntraBandwidth(),
                       cluster_.effInterBandwidth())
            : cluster_.effIntraBandwidth();
    }
    int steps = static_cast<int>(std::ceil(std::log2(g)));
    return bytes / bw +
        alphaTerm(scope == CommScope::Intra ? CommScope::Intra
                                            : CommScope::Inter,
                  steps);
}

double
CollectiveModel::time(Collective kind, CommScope scope, double bytes) const
{
    if (bytes < 0.0)
        fatal(strfmt("collective %s: negative byte count",
                     madmax::toString(kind).c_str()));
    if (bytes == 0.0 || groupSize(scope) <= 1)
        return 0.0;
    switch (kind) {
      case Collective::AllReduce: return allReduce(scope, bytes);
      case Collective::AllGather: return allGather(scope, bytes);
      case Collective::ReduceScatter: return reduceScatter(scope, bytes);
      case Collective::All2All: return allToAll(scope, bytes);
      case Collective::Broadcast: return broadcast(scope, bytes);
    }
    panic("time: unknown Collective");
}

} // namespace reference
} // namespace madmax
