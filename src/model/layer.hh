/**
 * @file
 * ML model layers as discrete blocks (§IV-A). Each layer reports the
 * quantities the performance model needs:
 *
 *  - parameter count (capacity / memory model),
 *  - forward FLOPs per sample (compute blocks),
 *  - HBM lookup traffic per sample (embedding bags),
 *  - output activation bytes per sample (TP partial sums, All2All
 *    redistribution, MoE routing volume),
 *  - retained activation memory per sample (training footprint).
 *
 * A "sample" is one training example: a (dense, sparse) record for
 * recommendation models, a full context-length sequence for LLMs.
 */

#ifndef MADMAX_MODEL_LAYER_HH
#define MADMAX_MODEL_LAYER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace madmax
{

/** Concrete layer flavor; used for trace labels and cost dispatch. */
enum class LayerKind
{
    Mlp,             ///< Stack of fully-connected layers.
    EmbeddingBag,    ///< Sharded sparse-feature tables with pooling.
    TokenEmbedding,  ///< LLM word-embedding lookup (one row per token).
    Attention,       ///< Self-attention (projections + score/value).
    FeedForward,     ///< Transformer FFN block.
    MoeFeedForward,  ///< Mixture-of-experts FFN (top-k routing).
    Interaction,     ///< DLRM feature-interaction (concat/dot-product).
};

/**
 * Strategy-assignment granularity: the paper applies one
 * parallelization strategy per layer *class* (e.g. "(TP, DDP) for base
 * dense layers, sharding for embeddings").
 */
enum class LayerClass
{
    SparseEmbedding, ///< Trillion-parameter DLRM tables; shard-only.
    DenseEmbedding,  ///< LLM word embeddings; small enough to replicate.
    BaseDense,       ///< Bottom/top MLPs, interactions, LM heads.
    Transformer,     ///< Attention + FFN blocks.
    MoE,             ///< Expert FFN blocks.
};

/** Number of LayerClass values (tables indexed by class). */
constexpr size_t kNumLayerClasses =
    static_cast<size_t>(LayerClass::MoE) + 1;

std::string toString(LayerKind kind);
std::string toString(LayerClass cls);

/**
 * Abstract layer. Concrete layers are immutable after construction;
 * the graph owns them via unique_ptr and hands out const references.
 */
class Layer
{
  public:
    Layer(std::string name, LayerClass cls);
    virtual ~Layer() = default;

    const std::string &name() const { return name_; }
    LayerClass layerClass() const { return class_; }

    virtual LayerKind kind() const = 0;

    /** Trainable parameter element count. */
    virtual double paramCount() const = 0;

    /** Forward-pass FLOPs for one sample. */
    virtual double forwardFlopsPerSample() const = 0;

    /**
     * HBM bytes touched by sparse lookups for one sample (0 for dense
     * layers, whose traffic is folded into the compute-utilization
     * derating).
     */
    virtual double lookupBytesPerSample() const { return 0.0; }

    /**
     * Output activation bytes for one sample at @p dtype_bytes element
     * size; the communication volume unit for TP AllReduce, embedding
     * All2All, and MoE routing.
     */
    virtual double outputBytesPerSample(double dtype_bytes) const = 0;

    /**
     * Partial-sum bytes a TP group AllReduces per sample. Transformer
     * blocks use Megatron-style column/row splits and only reduce the
     * block output; naive multi-layer MLP stacks reduce at every
     * internal layer boundary (overridden by MlpLayer).
     */
    virtual double tpCommBytesPerSample(double dtype_bytes) const
    {
        return outputBytesPerSample(dtype_bytes);
    }

    virtual std::unique_ptr<Layer> clone() const = 0;

    /**
     * True when @p other is this layer up to its name: the same
     * concrete type, kind, class, and every constructor parameter,
     * compared exactly. Same-shape layers have bitwise-equal costs
     * and collectives, so the evaluation context prices and emits one
     * representative per shape.
     */
    bool sameShape(const Layer &other) const;

  protected:
    /** Parameter equality against a layer of this concrete type. */
    virtual bool sameParams(const Layer &other) const = 0;

  private:
    std::string name_;
    LayerClass class_;
};

/**
 * A stack of fully-connected layers, e.g. DLRM bottom/top MLPs or an
 * LLM output head. dims = {in, h1, ..., out}.
 */
class MlpLayer : public Layer
{
  public:
    /**
     * @param name Layer instance name (trace label).
     * @param cls Strategy class (normally BaseDense).
     * @param dims Layer widths including input: {in, h1, ..., out};
     *        needs at least two entries.
     * @param tokens_per_sample Number of positions each sample pushes
     *        through the stack (1 for DLRM, context length for an LM
     *        head).
     */
    MlpLayer(std::string name, LayerClass cls, std::vector<long> dims,
             double tokens_per_sample = 1.0);

    LayerKind kind() const override { return LayerKind::Mlp; }
    double paramCount() const override;
    double forwardFlopsPerSample() const override;
    double outputBytesPerSample(double dtype_bytes) const override;

    /** Naive TP reduces partial sums at every layer boundary. */
    double tpCommBytesPerSample(double dtype_bytes) const override;

    std::unique_ptr<Layer> clone() const override;

    const std::vector<long> &dims() const { return dims_; }

  protected:
    bool sameParams(const Layer &other) const override;

  private:
    std::vector<long> dims_;
    double tokensPerSample_;
};

/**
 * DLRM sparse-feature embedding tables with sum/mean pooling. Tables
 * are modeled in aggregate: numTables identical tables of rowsPerTable
 * x embeddingDim, with avgPooling lookups per table per sample.
 */
class EmbeddingBagLayer : public Layer
{
  public:
    /**
     * @param avg_pooling Average lookups per table per sample; may be
     *        fractional (optional sparse features average below one).
     * @param bytes_per_element Table element size (fp32 by default).
     * @param hot_device_skew Ratio of the hottest device's lookup
     *        traffic to the mean under the current sharding. 1.0
     *        models the paper's even-sharding assumption; RecShard-
     *        style statistics raise it (§IV-B: "If the number of
     *        lookups are unevenly distributed between GPUs, we can
     *        adjust the lookup bytes per GPU on a per-GPU basis").
     */
    EmbeddingBagLayer(std::string name, long num_tables,
                      long rows_per_table, long embedding_dim,
                      double avg_pooling, double bytes_per_element = 4.0,
                      double hot_device_skew = 1.0);

    LayerKind kind() const override { return LayerKind::EmbeddingBag; }
    double paramCount() const override;
    double forwardFlopsPerSample() const override;
    double lookupBytesPerSample() const override;
    double outputBytesPerSample(double dtype_bytes) const override;
    std::unique_ptr<Layer> clone() const override;

    long numTables() const { return numTables_; }
    long rowsPerTable() const { return rowsPerTable_; }
    long embeddingDim() const { return embeddingDim_; }
    double avgPooling() const { return avgPooling_; }
    double bytesPerElement() const { return bytesPerElement_; }
    double hotDeviceSkew() const { return hotDeviceSkew_; }

  protected:
    bool sameParams(const Layer &other) const override;

  private:
    long numTables_;
    long rowsPerTable_;
    long embeddingDim_;
    double avgPooling_;
    double bytesPerElement_;
    double hotDeviceSkew_;
};

/**
 * LLM token embedding: one row per token, vocabSize x hidden. Includes
 * the (tied or untied) output projection rows if tie_factor == 2.
 */
class TokenEmbeddingLayer : public Layer
{
  public:
    /**
     * @param tokens_per_sample Context length.
     * @param tie_factor 1 for tied input/output embeddings, 2 when the
     *        output projection is a separate matrix counted here.
     */
    TokenEmbeddingLayer(std::string name, long vocab_size, long hidden,
                        double tokens_per_sample, int tie_factor = 1);

    LayerKind kind() const override { return LayerKind::TokenEmbedding; }
    double paramCount() const override;
    double forwardFlopsPerSample() const override;
    double lookupBytesPerSample() const override;
    double outputBytesPerSample(double dtype_bytes) const override;
    std::unique_ptr<Layer> clone() const override;

    long vocabSize() const { return vocabSize_; }
    long hidden() const { return hidden_; }

  protected:
    bool sameParams(const Layer &other) const override;

  private:
    long vocabSize_;
    long hidden_;
    double tokensPerSample_;
    int tieFactor_;
};

/**
 * Multi-head self-attention: four h x h projections (or GQA-shrunken
 * K/V) plus the quadratic score/value computation over the context.
 */
class AttentionLayer : public Layer
{
  public:
    /**
     * @param hidden Model width h.
     * @param num_heads Query head count.
     * @param context_length Sequence length the scores run over.
     * @param kv_heads Key/value head count (== num_heads unless GQA).
     */
    AttentionLayer(std::string name, LayerClass cls, long hidden,
                   long num_heads, long context_length, long kv_heads = 0);

    LayerKind kind() const override { return LayerKind::Attention; }
    double paramCount() const override;
    double forwardFlopsPerSample() const override;
    double outputBytesPerSample(double dtype_bytes) const override;
    std::unique_ptr<Layer> clone() const override;

    long hidden() const { return hidden_; }
    long contextLength() const { return contextLength_; }
    long numHeads() const { return numHeads_; }
    long kvHeads() const { return kvHeads_; }

    /**
     * KV-cache bytes appended per token per sequence by this layer:
     * one K and one V vector of kv_heads x head_dim elements
     * (GQA-shrunken when kv_heads < num_heads).
     */
    double kvBytesPerToken(double bytes_per_element) const
    {
        const double head_dim =
            static_cast<double>(hidden_) / static_cast<double>(numHeads_);
        return 2.0 * static_cast<double>(kvHeads_) * head_dim *
            bytes_per_element;
    }

  protected:
    bool sameParams(const Layer &other) const override;

  private:
    long hidden_;
    long numHeads_;
    long contextLength_;
    long kvHeads_;
};

/**
 * Transformer FFN: numMatrices linear maps between hidden and ffnDim
 * (2 for GELU MLPs, 3 for SwiGLU).
 */
class FeedForwardLayer : public Layer
{
  public:
    FeedForwardLayer(std::string name, LayerClass cls, long hidden,
                     long ffn_dim, long context_length,
                     int num_matrices = 2);

    LayerKind kind() const override { return LayerKind::FeedForward; }
    double paramCount() const override;
    double forwardFlopsPerSample() const override;
    double outputBytesPerSample(double dtype_bytes) const override;
    std::unique_ptr<Layer> clone() const override;

    long hidden() const { return hidden_; }
    long ffnDim() const { return ffnDim_; }

  protected:
    bool sameParams(const Layer &other) const override;

  private:
    long hidden_;
    long ffnDim_;
    long contextLength_;
    int numMatrices_;
};

/**
 * Mixture-of-experts FFN: numExperts parallel expert FFNs of which
 * activeExperts process each token; capacity scales with all experts,
 * FLOPs only with the active ones, and each token crosses the
 * expert-parallel group twice (dispatch + combine All2All).
 */
class MoeFeedForwardLayer : public Layer
{
  public:
    MoeFeedForwardLayer(std::string name, LayerClass cls, long hidden,
                        long ffn_dim, long context_length,
                        int num_experts, int active_experts,
                        int num_matrices = 2);

    LayerKind kind() const override { return LayerKind::MoeFeedForward; }
    double paramCount() const override;
    double forwardFlopsPerSample() const override;
    double outputBytesPerSample(double dtype_bytes) const override;
    std::unique_ptr<Layer> clone() const override;

    int numExperts() const { return numExperts_; }
    int activeExperts() const { return activeExperts_; }

    /**
     * Bytes each sample moves through expert dispatch+combine per
     * direction: active_experts copies of the token activations.
     */
    double routedBytesPerSample(double dtype_bytes) const;

  protected:
    bool sameParams(const Layer &other) const override;

  private:
    long hidden_;
    long ffnDim_;
    long contextLength_;
    int numExperts_;
    int activeExperts_;
    int numMatrices_;
};

/**
 * DLRM feature interaction: pairwise dot products between num_features
 * embedding-dim vectors (optionally compressed), no parameters.
 */
class InteractionLayer : public Layer
{
  public:
    InteractionLayer(std::string name, long num_features,
                     long feature_dim, long output_dim);

    LayerKind kind() const override { return LayerKind::Interaction; }
    double paramCount() const override { return 0.0; }
    double forwardFlopsPerSample() const override;
    double outputBytesPerSample(double dtype_bytes) const override;
    std::unique_ptr<Layer> clone() const override;

    long outputDim() const { return outputDim_; }

  protected:
    bool sameParams(const Layer &other) const override;

  private:
    long numFeatures_;
    long featureDim_;
    long outputDim_;
};

} // namespace madmax

#endif // MADMAX_MODEL_LAYER_HH
