#include "core/memory_model.hh"

#include <algorithm>

#include "parallel/sharding.hh"

namespace madmax
{

namespace memory_model
{

MemoryFootprint
evaluate(const ModelDesc &desc, const TaskSpec &task,
         const ParallelPlan &plan, const ClusterSpec &cluster)
{
    desc.validate();
    cluster.validate();
    return evaluate(terms(desc), task, plan, cluster);
}

Terms
terms(const ModelDesc &desc)
{
    const ModelGraph &graph = desc.graph;
    const size_t n = static_cast<size_t>(graph.numLayers());
    const double act_elem_bytes = desc.activationBytes();
    Terms t;
    t.params.reserve(n);
    t.retainedActs.reserve(n);
    t.transientParams.reserve(n);
    t.classes.reserve(n);
    double widest = 0.0, second = 0.0;
    for (size_t i = 0; i < n; ++i) {
        const Layer &layer = graph.layer(static_cast<int>(i));
        const double params = layer.paramCount();
        const double out = layer.outputBytesPerSample(act_elem_bytes);
        t.params.push_back(params);
        t.retainedActs.push_back(out);
        t.classes.push_back(static_cast<uint8_t>(layer.layerClass()));

        // FSDP materializes the in-flight unit on top of its shard.
        // MoE banks are wrapped per expert, so only one expert's
        // weights are gathered at a time.
        double transient_params = params;
        const LayerKind kind = layer.kind();
        if (kind == LayerKind::MoeFeedForward) {
            transient_params /=
                static_cast<const MoeFeedForwardLayer &>(layer)
                    .numExperts();
        } else if (kind == LayerKind::Attention) {
            t.kvPerElement.push_back(
                static_cast<const AttentionLayer &>(layer)
                    .kvBytesPerToken(1.0));
        }
        t.transientParams.push_back(transient_params);

        // Inference working set: the two widest adjacent layer
        // outputs.
        if (out > widest) {
            second = widest;
            widest = out;
        } else {
            second = std::max(second, out);
        }
    }
    t.workingSet = widest + second;
    t.paramElemBytes = desc.paramBytes();
    t.globalBatchSize = static_cast<double>(desc.globalBatchSize);
    t.contextLength = static_cast<double>(desc.contextLength);
    return t;
}

MemoryFootprint
evaluate(const Terms &terms, const TaskSpec &task, const ParallelPlan &plan,
         const ClusterSpec &cluster)
{
    MemoryFootprint fp;
    fp.usableCapacity =
        cluster.device.hbmCapacity * (1.0 - kReserveFraction);

    const double param_elem_bytes = terms.paramElemBytes;
    // Mixed-precision training keeps an fp32 master copy when params
    // are stored in 16-bit.
    const double master_bytes = param_elem_bytes < 4.0 ? 4.0 : 0.0;
    const double batch_share =
        terms.globalBatchSize / static_cast<double>(cluster.numDevices());

    // Everything the per-layer loop reads through the plan/task is a
    // function of the layer's class alone, so resolve each class once
    // instead of per layer.
    struct ClassTerms
    {
        ShardingInfo sh;
        double gradBytesPerParam;
        double optBytesPerParam;
        bool trainable;
    };
    ClassTerms classes[kNumLayerClasses];
    for (size_t c = 0; c < kNumLayerClasses; ++c) {
        const LayerClass cls = static_cast<LayerClass>(c);
        ClassTerms &ct = classes[c];
        ct.sh = shardingFor(plan.strategyFor(cls), cluster);
        ct.gradBytesPerParam = task.gradBytesPerParam(cls);
        ct.trainable = task.isTrainable(cls);
        ct.optBytesPerParam = task.optimizerBytesPerParam(cls);
        if (cls != LayerClass::SparseEmbedding)
            ct.optBytesPerParam += master_bytes;
    }

    const bool retains = task.retainsActivations();
    const size_t n = terms.params.size();
    for (size_t i = 0; i < n; ++i) {
        const ClassTerms &ct = classes[terms.classes[i]];
        const ShardingInfo &sh = ct.sh;
        const double params = terms.params[i];

        fp.paramBytes += params * param_elem_bytes * sh.paramFraction;
        fp.gradBytes +=
            params * ct.gradBytesPerParam * sh.paramFraction;
        if (ct.trainable) {
            fp.optimizerBytes +=
                params * ct.optBytesPerParam * sh.paramFraction;
        }
        if (retains)
            fp.activationBytes += terms.retainedActs[i] * batch_share;
        fp.transientBytes = std::max(
            fp.transientBytes,
            terms.transientParams[i] * param_elem_bytes *
                sh.transientParamFraction);
    }

    if (!retains) {
        fp.activationBytes = terms.workingSet * batch_share;

        // Decode steps materialize one token's activations, not the
        // whole context's (outputBytesPerSample counts contextLength
        // tokens for transformer layers).
        if (task.kind == TaskKind::Inference &&
            task.phase == InferencePhase::Decode) {
            fp.activationBytes /= terms.contextLength;
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
            : terms.contextLength;
        double per_token = 0.0;
        for (double per_element : terms.kvPerElement)
            per_token += per_element * task.kvBytesPerElement;
        fp.kvCacheBytes = per_token * kv_tokens * batch_share;
    }
    return fp;
}

} // namespace memory_model
} // namespace madmax
