/**
 * @file
 * Per-device memory-capacity model. Determines which parallelization
 * strategies are *valid* (the paper's OOM gray bars, Figs. 10-14):
 * parameters, gradients and optimizer states under the plan's
 * replication/sharding factors, retained activations for the device's
 * batch share, and FSDP's transiently-gathered layer. A fixed fraction
 * of HBM is reserved for the CUDA context, NCCL buffers and allocator
 * fragmentation.
 */

#ifndef MADMAX_CORE_MEMORY_MODEL_HH
#define MADMAX_CORE_MEMORY_MODEL_HH

#include <cstdint>
#include <vector>

#include "hw/cluster.hh"
#include "model/model_desc.hh"
#include "parallel/strategy.hh"
#include "task/task.hh"

namespace madmax
{

/** Per-device memory footprint split by source. */
struct MemoryFootprint
{
    double paramBytes = 0.0;      ///< Persistent parameter shards.
    double gradBytes = 0.0;       ///< Dense gradient buffers.
    double optimizerBytes = 0.0;  ///< Optimizer states (+ fp32 master).
    double activationBytes = 0.0; ///< Retained activations.
    double transientBytes = 0.0;  ///< Peak FSDP gathered layer.
    double kvCacheBytes = 0.0;    ///< KV cache (phase-split inference).
    double usableCapacity = 0.0;  ///< HBM after reserves.

    double total() const
    {
        return paramBytes + gradBytes + optimizerBytes +
            activationBytes + transientBytes + kvCacheBytes;
    }

    bool fits() const { return total() <= usableCapacity; }
};

/** Per-device memory footprints for (model, task, plan) on a cluster. */
namespace memory_model
{

/**
 * Fraction of HBM unavailable to the model (CUDA context, NCCL
 * channels, caching-allocator fragmentation, workspace).
 */
constexpr double kReserveFraction = 0.30;

/**
 * The plan-invariant inputs of a footprint, read off a model once and
 * flattened in layer order, so pricing a plan walks arrays instead of
 * making virtual calls on every layer. A sweep's EvalContext builds one
 * and prices every plan from it.
 */
struct Terms
{
    std::vector<double> params; ///< Layer::paramCount().
    /** Activation bytes per sample kept for the backward pass: the
     *  layer output, since activations are checkpointed at layer
     *  boundaries and the rest recomputed. */
    std::vector<double> retainedActs;
    /** Parameters FSDP gathers at once: one expert's for an MoE bank,
     *  the whole layer's otherwise. */
    std::vector<double> transientParams;
    std::vector<uint8_t> classes; ///< LayerClass.
    /** kvBytesPerToken(1.0) of each attention layer, in order. */
    std::vector<double> kvPerElement;
    /** Sum of the two widest layer outputs, bytes per sample: the
     *  inference working set. */
    double workingSet = 0.0;
    double paramElemBytes = 0.0;  ///< ModelDesc::paramBytes().
    double globalBatchSize = 0.0; ///< ModelDesc::globalBatchSize.
    double contextLength = 0.0;   ///< ModelDesc::contextLength.
};

/** Read @p desc's footprint inputs once (see Terms). */
Terms terms(const ModelDesc &desc);

/**
 * Price @p plan from @p terms. The model and cluster behind them must
 * already be validated; this is the one pricing loop every footprint
 * goes through.
 */
MemoryFootprint evaluate(const Terms &terms, const TaskSpec &task,
                         const ParallelPlan &plan,
                         const ClusterSpec &cluster);

/** Validate @p desc and @p cluster, then price @p plan from
 *  terms(desc). */
MemoryFootprint evaluate(const ModelDesc &desc, const TaskSpec &task,
                         const ParallelPlan &plan,
                         const ClusterSpec &cluster);

} // namespace memory_model

} // namespace madmax

#endif // MADMAX_CORE_MEMORY_MODEL_HH
