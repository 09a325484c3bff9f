#include "core/memory_model.hh"

#include <algorithm>

#include "parallel/sharding.hh"
#include "util/logging.hh"

namespace madmax
{

MemoryModel::MemoryModel(MemoryModelOptions options)
    : options_(options)
{
    if (options_.reserveFraction < 0.0 || options_.reserveFraction >= 1.0)
        fatal("MemoryModel: reserveFraction must be in [0, 1)");
}

MemoryFootprint
MemoryModel::evaluate(const ModelDesc &desc, const TaskSpec &task,
                      const ParallelPlan &plan,
                      const ClusterSpec &cluster) const
{
    desc.validate();
    cluster.validate();

    MemoryFootprint fp;
    fp.usableCapacity =
        cluster.device.hbmCapacity * (1.0 - options_.reserveFraction);

    const double param_elem_bytes = desc.paramBytes();
    // Mixed-precision training keeps an fp32 master copy when params
    // are stored in 16-bit.
    const double master_bytes = param_elem_bytes < 4.0 ? 4.0 : 0.0;
    const double batch_share =
        static_cast<double>(desc.globalBatchSize) /
        static_cast<double>(cluster.numDevices());

    // Everything the per-layer loop reads through the plan/task is a
    // function of the layer's class alone; resolve each class once
    // instead of per layer (a strategy map lookup plus sharding per
    // layer is measurable on ~200-layer graphs in the DSE hot path).
    // The per-layer arithmetic below is unchanged, so the sums are
    // bit-identical.
    struct ClassTerms
    {
        ShardingInfo sh;
        double gradBytesPerParam;
        double optBytesPerParam;
        bool trainable;
    };
    constexpr size_t kNumClasses =
        static_cast<size_t>(LayerClass::MoE) + 1;
    ClassTerms terms[kNumClasses];
    for (size_t c = 0; c < kNumClasses; ++c) {
        const LayerClass cls = static_cast<LayerClass>(c);
        ClassTerms &t = terms[c];
        t.sh = shardingFor(plan.strategyFor(cls), cluster);
        t.gradBytesPerParam = task.gradBytesPerParam(cls);
        t.trainable = task.isTrainable(cls);
        t.optBytesPerParam = task.optimizerBytesPerParam(cls);
        if (cls != LayerClass::SparseEmbedding)
            t.optBytesPerParam += master_bytes;
    }

    for (int i = 0; i < desc.graph.numLayers(); ++i) {
        const Layer &layer = desc.graph.layer(i);
        const LayerClass cls = layer.layerClass();
        const ClassTerms &t = terms[static_cast<size_t>(cls)];
        const ShardingInfo &sh = t.sh;
        const double params = layer.paramCount();

        fp.paramBytes += params * param_elem_bytes * sh.paramFraction;
        fp.gradBytes +=
            params * t.gradBytesPerParam * sh.paramFraction;
        if (t.trainable) {
            fp.optimizerBytes +=
                params * t.optBytesPerParam * sh.paramFraction;
        }

        if (task.retainsActivations()) {
            double act = options_.checkpointActivations
                ? layer.outputBytesPerSample(desc.activationBytes())
                : layer.activationMemoryBytesPerSample(
                      desc.activationBytes());
            fp.activationBytes += act * batch_share;
        }

        // FSDP materializes the in-flight unit on top of its shard.
        // MoE banks are wrapped per expert, so only one expert's
        // weights are gathered at a time.
        double transient_params = params;
        if (layer.kind() == LayerKind::MoeFeedForward) {
            transient_params /= static_cast<const MoeFeedForwardLayer &>(
                                    layer)
                                    .numExperts();
        }
        fp.transientBytes = std::max(
            fp.transientBytes,
            transient_params * param_elem_bytes *
                sh.transientParamFraction);
    }

    if (!task.retainsActivations()) {
        // Inference working set: the two widest adjacent layer
        // outputs for the device's batch share.
        double widest = 0.0, second = 0.0;
        for (int i = 0; i < desc.graph.numLayers(); ++i) {
            double b = desc.graph.layer(i).outputBytesPerSample(
                desc.activationBytes());
            if (b > widest) {
                second = widest;
                widest = b;
            } else {
                second = std::max(second, b);
            }
        }
        fp.activationBytes = (widest + second) * batch_share;

        // Decode steps materialize one token's activations, not the
        // whole context's (outputBytesPerSample counts contextLength
        // tokens for transformer layers).
        if (task.kind == TaskKind::Inference &&
            task.phase == InferencePhase::Decode) {
            fp.activationBytes /=
                static_cast<double>(desc.contextLength);
        }
    }

    // Phase-split LLM inference holds a KV cache: every attention
    // layer retains K and V for up to kvCapacityTokens per resident
    // sequence (the model's full context by default). The cache rides
    // the batch split like activations do — each device holds the
    // cache for its share of the in-flight sequences. Batch-phase
    // inference and training leave this at zero, keeping every legacy
    // footprint byte-identical.
    if (task.usesKvCache()) {
        const double kv_tokens = task.kvCapacityTokens > 0
            ? static_cast<double>(task.kvCapacityTokens)
            : static_cast<double>(desc.contextLength);
        fp.kvCacheBytes = desc.kvBytesPerToken(task.kvBytesPerElement) *
            kv_tokens * batch_share;
    }
    return fp;
}

} // namespace madmax
