#include "parallel/comm_planner.hh"

#include "parallel/sharding.hh"
#include "util/logging.hh"

namespace madmax
{

std::string
toString(Phase phase)
{
    switch (phase) {
      case Phase::Forward: return "fwd";
      case Phase::Backward: return "bwd";
    }
    panic("toString: unknown Phase");
}

CommPlanner::CommPlanner(const ModelDesc &desc, const TaskSpec &task,
                         const ParallelPlan &plan,
                         const ClusterSpec &cluster)
    : desc_(desc), task_(task), plan_(plan), cluster_(cluster)
{
    desc_.validate();
    cluster_.validate();
}

std::vector<CommPlanner::Level>
CommPlanner::levels(HierStrategy hs, double param_bytes) const
{
    // The constructor's cluster_.validate() pins an attached
    // topology's tier fans to this d/m/n shape (validateAgainst).
    const int d = cluster_.devicesPerNode;
    const int m = cluster_.numNodes;
    const int n = cluster_.numDevices();

    if (hs.intra == Strategy::None)
        fatal("CommPlanner: strategy has no intra level");

    // (FSDP, FSDP) collapses to global FSDP (see shardingFor).
    if (hs.intra == Strategy::FSDP && hs.inter == Strategy::FSDP)
        hs = HierStrategy{Strategy::FSDP};

    std::vector<Level> out;
    out.reserve(2);
    if (hs.isGlobal()) {
        out.push_back(Level{hs.intra, CommScope::Global, n, param_bytes});
        return out;
    }
    double f_intra = shardsParams(hs.intra) ? 1.0 / d : 1.0;
    double f_inter = shardsParams(hs.inter) ? 1.0 / m : 1.0;
    out.push_back(Level{hs.intra, CommScope::Intra, d,
                        param_bytes * f_inter});
    out.push_back(Level{hs.inter, CommScope::Inter, m,
                        param_bytes * f_intra});
    return out;
}

void
CommPlanner::planParamComms(std::vector<CommOp> &out, int idx,
                            const Level &level, bool trainable) const
{
    if (level.group <= 1 || level.tensorBytes <= 0.0)
        return;

    switch (level.strategy) {
      case Strategy::DDP:
        // Weight-gradient AllReduce; off the backprop critical path.
        if (trainable) {
            out.push_back(CommOp{idx, Phase::Backward, CommPosition::Post,
                                 Collective::AllReduce, level.scope,
                                 level.tensorBytes, false,
                                 NameSuffix::GradAllReduce});
        }
        break;
      case Strategy::FSDP:
        // Gather parameters for forward use...
        out.push_back(CommOp{idx, Phase::Forward, CommPosition::Pre,
                             Collective::AllGather, level.scope,
                             level.tensorBytes, true,
                             NameSuffix::ParamGather});
        // ...re-gather for backward...
        if (task_.needsBackward()) {
            out.push_back(CommOp{idx, Phase::Backward, CommPosition::Pre,
                                 Collective::AllGather, level.scope,
                                 level.tensorBytes, true,
                                 NameSuffix::ParamRegather});
        }
        // ...and scatter-reduce weight gradients.
        if (trainable) {
            out.push_back(CommOp{idx, Phase::Backward, CommPosition::Post,
                                 Collective::ReduceScatter, level.scope,
                                 level.tensorBytes, false,
                                 NameSuffix::GradReduceScatter});
        }
        break;
      case Strategy::TP:
      case Strategy::MP:
      case Strategy::None:
        break; // Handled by activation / sharded planners.
    }
}

void
CommPlanner::planActivationComms(std::vector<CommOp> &out, int idx,
                                 const Level &level,
                                 double act_tensor_bytes) const
{
    if (level.strategy != Strategy::TP || level.group <= 1 ||
        act_tensor_bytes <= 0.0) {
        return;
    }
    // Partial-sum AllReduce: consumers need the full activations.
    out.push_back(CommOp{idx, Phase::Forward, CommPosition::Post,
                         Collective::AllReduce, level.scope,
                         act_tensor_bytes, true,
                         NameSuffix::ActAllReduce});
    if (task_.needsBackward()) {
        // Input-gradient AllReduce mirrors the forward volume.
        out.push_back(CommOp{idx, Phase::Backward, CommPosition::Post,
                             Collective::AllReduce, level.scope,
                             act_tensor_bytes, true,
                             NameSuffix::ActGradAllReduce});
    }
}

void
CommPlanner::planShardedComms(std::vector<CommOp> &out, int idx,
                              const Level &level, double a2a_bytes,
                              bool trainable, bool is_moe) const
{
    if (level.strategy != Strategy::MP || level.group <= 1 ||
        a2a_bytes <= 0.0) {
        return;
    }
    if (is_moe) {
        // Expert parallelism: dispatch before and combine after the
        // expert compute, both directions of the iteration.
        out.push_back(CommOp{idx, Phase::Forward, CommPosition::Pre,
                             Collective::All2All, level.scope, a2a_bytes,
                             true, NameSuffix::Dispatch});
        out.push_back(CommOp{idx, Phase::Forward, CommPosition::Post,
                             Collective::All2All, level.scope, a2a_bytes,
                             true, NameSuffix::Combine});
        if (task_.needsBackward()) {
            out.push_back(CommOp{idx, Phase::Backward, CommPosition::Pre,
                                 Collective::All2All, level.scope,
                                 a2a_bytes, true, NameSuffix::CombineGrad});
            out.push_back(CommOp{idx, Phase::Backward, CommPosition::Post,
                                 Collective::All2All, level.scope,
                                 a2a_bytes, true, NameSuffix::DispatchGrad});
        }
        return;
    }
    // Embedding-table sharding: redistribute pooled lookups to sample
    // owners after forward lookup; route gradients back before the
    // backward table update (only when tables train at all).
    out.push_back(CommOp{idx, Phase::Forward, CommPosition::Post,
                         Collective::All2All, level.scope, a2a_bytes,
                         true, NameSuffix::PooledA2A});
    if (trainable) {
        out.push_back(CommOp{idx, Phase::Backward, CommPosition::Pre,
                             Collective::All2All, level.scope, a2a_bytes,
                             true, NameSuffix::PooledGradA2A});
    }
}

std::vector<CommOp>
CommPlanner::planLayer(int idx) const
{
    const Layer &layer = desc_.graph.layer(idx);
    const LayerClass cls = layer.layerClass();
    const HierStrategy hs = plan_.strategyFor(cls);
    const bool trainable = task_.isTrainable(cls);
    const double param_bytes = layer.paramCount() * desc_.paramBytes();
    const int n = cluster_.numDevices();

    const ShardingInfo sharding = shardingFor(hs, cluster_);
    const double batch = static_cast<double>(desc_.globalBatchSize);

    // Activation tensor AllReduced by a TP group: the samples the
    // group cooperates on.
    const double group_batch =
        batch / static_cast<double>(sharding.dataParallelWays);
    const double act_tensor_bytes =
        layer.tpCommBytesPerSample(desc_.activationBytes()) * group_batch;

    // All2All send bytes per device: this device's shard of the
    // redistribution payload.
    const bool is_moe = layer.kind() == LayerKind::MoeFeedForward;
    double payload_per_sample = 0.0;
    if (is_moe) {
        payload_per_sample = static_cast<const MoeFeedForwardLayer &>(layer)
            .routedBytesPerSample(desc_.activationBytes());
    } else {
        payload_per_sample =
            layer.outputBytesPerSample(desc_.activationBytes());
    }
    const double a2a_bytes = payload_per_sample * batch / n;

    const std::vector<Level> planned = levels(hs, param_bytes);
    std::vector<CommOp> out;
    // A level plans at most four collectives (an MoE bank's dispatch
    // and combine, each way).
    out.reserve(4 * planned.size());
    for (const Level &level : planned) {
        planParamComms(out, idx, level, trainable);
        planActivationComms(out, idx, level, act_tensor_bytes);
        planShardedComms(out, idx, level, a2a_bytes, trainable, is_moe);
    }
    return out;
}

std::vector<CommOp>
CommPlanner::planAll() const
{
    std::vector<CommOp> out;
    for (int i = 0; i < desc_.graph.numLayers(); ++i) {
        std::vector<CommOp> ops = planLayer(i);
        out.insert(out.end(), ops.begin(), ops.end());
    }
    return out;
}

} // namespace madmax
