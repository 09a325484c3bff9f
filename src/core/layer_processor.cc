#include "core/layer_processor.hh"

#include <algorithm>

#include "util/logging.hh"

namespace madmax
{

LayerProcessor::LayerProcessor(const ClusterSpec &cluster,
                               const ModelDesc &desc,
                               std::optional<SmUtilizationModel> sm_model)
    : cluster_(cluster), desc_(desc), smModel_(std::move(sm_model))
{
    cluster_.validate();
    desc_.validate();
}

double
LayerProcessor::deviceForwardFlops(const Layer &layer) const
{
    // Even division of the global batch's work across all devices
    // holds for every strategy in the space: data-parallel levels
    // split samples, TP/MP levels split the per-sample work.
    return layer.forwardFlopsPerSample() *
        static_cast<double>(desc_.globalBatchSize) /
        static_cast<double>(cluster_.numDevices());
}

double
LayerProcessor::computeTime(double flops) const
{
    if (flops <= 0.0)
        return 0.0;
    double peak = cluster_.device.peakFlops(desc_.computeDtype);
    double util = smModel_ ? smModel_->utilization(flops)
                           : cluster_.util.compute;
    return flops / (peak * util);
}

double
LayerProcessor::lookupTime(double bytes) const
{
    if (bytes <= 0.0)
        return 0.0;
    return bytes / (cluster_.device.hbmBandwidth * cluster_.util.hbm);
}

double
LayerProcessor::forwardTime(const Layer &layer) const
{
    const double batch_share =
        static_cast<double>(desc_.globalBatchSize) /
        static_cast<double>(cluster_.numDevices());

    switch (layer.kind()) {
      case LayerKind::EmbeddingBag: {
        // Lookup-bound (§IV-B "Embedding Bags"). The hottest device
        // gates lock-step SPMD execution when lookups shard unevenly.
        const auto &emb = static_cast<const EmbeddingBagLayer &>(layer);
        return lookupTime(emb.lookupBytesPerSample() * batch_share) *
            emb.hotDeviceSkew();
      }
      case LayerKind::TokenEmbedding:
        return lookupTime(layer.lookupBytesPerSample() * batch_share);
      default:
        // Compute-bound (§IV-B "Compute Blocks").
        return computeTime(deviceForwardFlops(layer));
    }
}

double
LayerProcessor::decodeFlopsPerToken(const Layer &layer, long kv_length) const
{
    switch (layer.kind()) {
      case LayerKind::Attention: {
        // One token's projections are GEMVs against every weight
        // element (2 FLOPs/param), and its scores + weighted values
        // each read the full KV history: 2 x h x L for QK^T plus
        // 2 x h x L for the value mix, independent of head count.
        const auto &att = static_cast<const AttentionLayer &>(layer);
        const double h = static_cast<double>(att.hidden());
        const double L = static_cast<double>(kv_length);
        return 2.0 * att.paramCount() + 4.0 * h * L;
      }
      case LayerKind::EmbeddingBag:
      case LayerKind::TokenEmbedding:
        return 0.0; // Lookup-bound; handled via lookup bytes.
      default:
        // Context-independent layers (FFN, MLP, MoE active experts,
        // heads): one token's share of the per-sample forward.
        return layer.forwardFlopsPerSample() /
            static_cast<double>(desc_.contextLength);
    }
}

double
LayerProcessor::forwardTime(const Layer &layer, const TaskSpec &task) const
{
    if (task.kind != TaskKind::Inference ||
        task.phase != InferencePhase::Decode)
        return forwardTime(layer);

    const double batch_share =
        static_cast<double>(desc_.globalBatchSize) /
        static_cast<double>(cluster_.numDevices());
    const long kv_length = task.decodeKvLength > 0
        ? task.decodeKvLength
        : static_cast<long>(desc_.contextLength);

    if (layer.kind() == LayerKind::EmbeddingBag ||
        layer.kind() == LayerKind::TokenEmbedding) {
        // One row per sequence per step instead of one per token.
        const double bytes_per_token = layer.lookupBytesPerSample() /
            static_cast<double>(desc_.contextLength);
        return lookupTime(bytes_per_token * batch_share);
    }

    const double compute =
        computeTime(decodeFlopsPerToken(layer, kv_length) * batch_share);

    // Memory-bound floor: a decode step must stream the layer's
    // weight shard (even-sharding: 1/numDevices of the parameters)
    // and each resident sequence's KV slice for this layer out of
    // HBM, however few FLOPs it spends on them. This is what makes
    // decode throughput track HBM bandwidth instead of peak FLOPs.
    double hbm_bytes = layer.paramCount() * desc_.paramBytes() /
        static_cast<double>(cluster_.numDevices());
    if (layer.kind() == LayerKind::Attention) {
        const auto &att = static_cast<const AttentionLayer &>(layer);
        hbm_bytes += att.kvBytesPerToken(task.kvBytesPerElement) *
            static_cast<double>(kv_length) * batch_share;
    }
    const double floor_time =
        hbm_bytes / (cluster_.device.hbmBandwidth * cluster_.util.hbm);

    return std::max(compute, floor_time);
}

double
LayerProcessor::backwardTime(const Layer &layer, const TaskSpec &task) const
{
    if (!task.needsBackward())
        return 0.0;

    const LayerClass cls = layer.layerClass();
    const double batch_share =
        static_cast<double>(desc_.globalBatchSize) /
        static_cast<double>(cluster_.numDevices());

    switch (layer.kind()) {
      case LayerKind::EmbeddingBag:
      case LayerKind::TokenEmbedding: {
        // Frozen tables receive no gradients (nothing sits below
        // them); trainable tables re-touch the looked-up rows to
        // apply sparse updates.
        if (!task.isTrainable(cls))
            return 0.0;
        double skew = layer.kind() == LayerKind::EmbeddingBag
            ? static_cast<const EmbeddingBagLayer &>(layer)
                  .hotDeviceSkew()
            : 1.0;
        return lookupTime(layer.lookupBytesPerSample() * batch_share) *
            skew;
      }
      default:
        return computeTime(deviceForwardFlops(layer)) *
            task.backwardFlopsMultiplier(cls);
    }
}

EventCategory
LayerProcessor::categoryOf(const Layer &layer)
{
    switch (layer.kind()) {
      case LayerKind::EmbeddingBag:
      case LayerKind::TokenEmbedding:
        return EventCategory::EmbeddingLookup;
      default:
        return EventCategory::Gemm;
    }
}

} // namespace madmax
