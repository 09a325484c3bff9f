/**
 * @file
 * A complete workload description on the model side: the layer graph
 * plus the input configuration (global batch, context length, compute
 * data type). Tasks (pre-training / fine-tuning / inference) are
 * orthogonal and live in src/task.
 */

#ifndef MADMAX_MODEL_MODEL_DESC_HH
#define MADMAX_MODEL_MODEL_DESC_HH

#include <string>

#include "hw/device.hh"
#include "model/model_graph.hh"

namespace madmax
{

/**
 * Model + input configuration. "Samples" are training examples: for
 * LLMs one sample is a full context-length sequence, so token-level
 * metrics divide by contextLength.
 */
struct ModelDesc
{
    std::string name;
    ModelGraph graph;

    /** Global (cluster-wide) batch size in samples per iteration. */
    long globalBatchSize = 1;

    /** Tokens per sample; 1 for recommendation models. */
    long contextLength = 1;

    /** Compute/activation precision. */
    DataType computeDtype = DataType::TF32;

    /** Parameter storage precision (optimizer states stay fp32). */
    DataType paramDtype = DataType::FP32;

    /** True if this is a recommendation model (throughput in QPS). */
    bool isRecommendation = false;

    /** Bytes per parameter element. */
    double paramBytes() const { return bytesOf(paramDtype); }

    /** Bytes per activation element. */
    double activationBytes() const { return bytesOf(computeDtype); }

    /** Forward FLOPs per token (Table II's "FLOPs per sample/token"). */
    double forwardFlopsPerToken() const;

    /** KV-cache bytes one sequence appends per token, summed over the
     *  attention layers in graph order. */
    double kvBytesPerToken(double bytes_per_element) const;

    /** Validate invariants. @throws ConfigError */
    void validate() const;
};

} // namespace madmax

#endif // MADMAX_MODEL_MODEL_DESC_HH
