/**
 * @file
 * Per-layer cost estimation (§IV-B "Processing Individual Model
 * Layers"). Layers are processed by their primary system requirement:
 *
 *  - Compute blocks: t = FLOPs / (peak FLOPS x compute utilization).
 *  - Embedding bags:  t = lookup bytes / (HBM BW x HBM utilization).
 *
 * Work is evenly divided across devices (the paper's even-sharding
 * assumption), so every estimate here is per device per iteration.
 */

#ifndef MADMAX_CORE_LAYER_PROCESSOR_HH
#define MADMAX_CORE_LAYER_PROCESSOR_HH

#include <optional>

#include "hw/cluster.hh"
#include "hw/utilization.hh"
#include "model/model_desc.hh"
#include "task/task.hh"
#include "trace/trace_event.hh"

namespace madmax
{

/**
 * Turns layers into per-device execution times for a given model and
 * cluster. When an SmUtilizationModel is supplied, dense-layer
 * utilization becomes a function of the per-device layer FLOPs (used
 * by the ViT validation, Fig. 8); otherwise the cluster's fixed
 * compute-utilization factor applies.
 */
class LayerProcessor
{
  public:
    LayerProcessor(const ClusterSpec &cluster, const ModelDesc &desc,
                   std::optional<SmUtilizationModel> sm_model =
                       std::nullopt);

    /** Forward-pass time of @p layer on one device, seconds. */
    double forwardTime(const Layer &layer) const;

    /**
     * Forward-pass time of @p layer on one device under @p task.
     * Identical to forwardTime(layer) for every task except
     * decode-phase inference, which swaps the whole-context forward
     * for a single-token step: per-token GEMV compute against the
     * resident weights plus attention over the accumulated KV cache,
     * floored by the HBM time to stream the weight shard and the KV
     * cache through the device (the memory-bound regime that makes
     * decode want different hardware than prefill).
     */
    double forwardTime(const Layer &layer, const TaskSpec &task) const;

    /**
     * Decode-step FLOPs of @p layer for one token of one sequence
     * attending over @p kv_length cached tokens.
     */
    double decodeFlopsPerToken(const Layer &layer, long kv_length) const;

    /**
     * Backward-pass time of @p layer on one device under @p task
     * (0 for inference; frozen layers only propagate input
     * gradients; frozen embedding bags do no backward work at all).
     */
    double backwardTime(const Layer &layer, const TaskSpec &task) const;

    /** Breakdown category for the layer's compute events (a
     *  function of the layer's kind alone). */
    static EventCategory categoryOf(const Layer &layer);

    /** Per-device forward FLOPs of @p layer (batch-share adjusted). */
    double deviceForwardFlops(const Layer &layer) const;

  private:
    double computeTime(double flops) const;
    double lookupTime(double bytes) const;

    ClusterSpec cluster_;
    const ModelDesc &desc_;
    std::optional<SmUtilizationModel> smModel_;
};

} // namespace madmax

#endif // MADMAX_CORE_LAYER_PROCESSOR_HH
