#include "model/layer.hh"

#include <typeinfo>

#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

std::string
toString(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Mlp: return "MLP";
      case LayerKind::EmbeddingBag: return "EMB";
      case LayerKind::TokenEmbedding: return "TOK_EMB";
      case LayerKind::Attention: return "ATTN";
      case LayerKind::FeedForward: return "FFN";
      case LayerKind::MoeFeedForward: return "MOE_FFN";
      case LayerKind::Interaction: return "INTERACT";
    }
    panic("toString: unknown LayerKind");
}

std::string
toString(LayerClass cls)
{
    switch (cls) {
      case LayerClass::SparseEmbedding: return "sparse-embedding";
      case LayerClass::DenseEmbedding: return "dense-embedding";
      case LayerClass::BaseDense: return "base-dense";
      case LayerClass::Transformer: return "transformer";
      case LayerClass::MoE: return "moe";
    }
    panic("toString: unknown LayerClass");
}

Layer::Layer(std::string name, LayerClass cls)
    : name_(std::move(name)), class_(cls)
{
}

bool
Layer::sameShape(const Layer &other) const
{
    // The type check (which also fixes the kind) makes each
    // sameParams downcast safe.
    return typeid(*this) == typeid(other) && class_ == other.class_ &&
        sameParams(other);
}

// --- MlpLayer --------------------------------------------------------------

MlpLayer::MlpLayer(std::string name, LayerClass cls,
                   std::vector<long> dims, double tokens_per_sample)
    : Layer(std::move(name), cls), dims_(std::move(dims)),
      tokensPerSample_(tokens_per_sample)
{
    if (dims_.size() < 2)
        fatal(strfmt("MlpLayer '%s': needs at least {in, out} dims",
                     this->name().c_str()));
    for (long d : dims_) {
        if (d < 1)
            fatal(strfmt("MlpLayer '%s': non-positive dim",
                         this->name().c_str()));
    }
    if (tokensPerSample_ <= 0.0)
        fatal(strfmt("MlpLayer '%s': tokens_per_sample must be positive",
                     this->name().c_str()));
}

double
MlpLayer::paramCount() const
{
    double params = 0.0;
    for (size_t i = 0; i + 1 < dims_.size(); ++i) {
        params += static_cast<double>(dims_[i]) *
            static_cast<double>(dims_[i + 1]) +
            static_cast<double>(dims_[i + 1]); // Bias.
    }
    return params;
}

double
MlpLayer::forwardFlopsPerSample() const
{
    double flops = 0.0;
    for (size_t i = 0; i + 1 < dims_.size(); ++i) {
        flops += 2.0 * static_cast<double>(dims_[i]) *
            static_cast<double>(dims_[i + 1]);
    }
    return flops * tokensPerSample_;
}

double
MlpLayer::outputBytesPerSample(double dtype_bytes) const
{
    return static_cast<double>(dims_.back()) * tokensPerSample_ *
        dtype_bytes;
}

double
MlpLayer::tpCommBytesPerSample(double dtype_bytes) const
{
    double elems = 0.0;
    for (size_t i = 1; i < dims_.size(); ++i)
        elems += static_cast<double>(dims_[i]);
    return elems * tokensPerSample_ * dtype_bytes;
}

std::unique_ptr<Layer>
MlpLayer::clone() const
{
    return std::make_unique<MlpLayer>(*this);
}

bool
MlpLayer::sameParams(const Layer &other) const
{
    const auto &o = static_cast<const MlpLayer &>(other);
    return dims_ == o.dims_ && tokensPerSample_ == o.tokensPerSample_;
}

// --- EmbeddingBagLayer -------------------------------------------------------

EmbeddingBagLayer::EmbeddingBagLayer(std::string name, long num_tables,
                                     long rows_per_table,
                                     long embedding_dim, double avg_pooling,
                                     double bytes_per_element,
                                     double hot_device_skew)
    : Layer(std::move(name), LayerClass::SparseEmbedding),
      numTables_(num_tables), rowsPerTable_(rows_per_table),
      embeddingDim_(embedding_dim), avgPooling_(avg_pooling),
      bytesPerElement_(bytes_per_element),
      hotDeviceSkew_(hot_device_skew)
{
    if (hot_device_skew < 1.0)
        fatal(strfmt("EmbeddingBagLayer '%s': skew must be >= 1",
                     this->name().c_str()));
    if (num_tables < 1 || rows_per_table < 1 || embedding_dim < 1)
        fatal(strfmt("EmbeddingBagLayer '%s': non-positive geometry",
                     this->name().c_str()));
    if (avg_pooling <= 0.0)
        fatal(strfmt("EmbeddingBagLayer '%s': pooling must be positive",
                     this->name().c_str()));
    if (bytes_per_element <= 0.0)
        fatal(strfmt("EmbeddingBagLayer '%s': element size must be positive",
                     this->name().c_str()));
}

double
EmbeddingBagLayer::paramCount() const
{
    return static_cast<double>(numTables_) *
        static_cast<double>(rowsPerTable_) *
        static_cast<double>(embeddingDim_);
}

double
EmbeddingBagLayer::forwardFlopsPerSample() const
{
    // Sum-pooling adds: one add per looked-up element.
    return static_cast<double>(numTables_) * avgPooling_ *
        static_cast<double>(embeddingDim_);
}

double
EmbeddingBagLayer::lookupBytesPerSample() const
{
    return static_cast<double>(numTables_) * avgPooling_ *
        static_cast<double>(embeddingDim_) * bytesPerElement_;
}

double
EmbeddingBagLayer::outputBytesPerSample(double dtype_bytes) const
{
    // Pooled output: one dim-wide vector per table.
    return static_cast<double>(numTables_) *
        static_cast<double>(embeddingDim_) * dtype_bytes;
}

std::unique_ptr<Layer>
EmbeddingBagLayer::clone() const
{
    return std::make_unique<EmbeddingBagLayer>(*this);
}

bool
EmbeddingBagLayer::sameParams(const Layer &other) const
{
    const auto &o = static_cast<const EmbeddingBagLayer &>(other);
    return numTables_ == o.numTables_ && rowsPerTable_ == o.rowsPerTable_ &&
        embeddingDim_ == o.embeddingDim_ && avgPooling_ == o.avgPooling_ &&
        bytesPerElement_ == o.bytesPerElement_ &&
        hotDeviceSkew_ == o.hotDeviceSkew_;
}

// --- TokenEmbeddingLayer ----------------------------------------------------

TokenEmbeddingLayer::TokenEmbeddingLayer(std::string name, long vocab_size,
                                         long hidden,
                                         double tokens_per_sample,
                                         int tie_factor)
    : Layer(std::move(name), LayerClass::DenseEmbedding),
      vocabSize_(vocab_size), hidden_(hidden),
      tokensPerSample_(tokens_per_sample), tieFactor_(tie_factor)
{
    if (vocab_size < 1 || hidden < 1)
        fatal(strfmt("TokenEmbeddingLayer '%s': non-positive geometry",
                     this->name().c_str()));
    if (tokens_per_sample <= 0.0)
        fatal(strfmt("TokenEmbeddingLayer '%s': tokens must be positive",
                     this->name().c_str()));
    if (tie_factor != 1 && tie_factor != 2)
        fatal(strfmt("TokenEmbeddingLayer '%s': tie_factor must be 1 or 2",
                     this->name().c_str()));
}

double
TokenEmbeddingLayer::paramCount() const
{
    return static_cast<double>(vocabSize_) * static_cast<double>(hidden_) *
        tieFactor_;
}

double
TokenEmbeddingLayer::forwardFlopsPerSample() const
{
    // Lookup itself is copy-only; negligible adds.
    return static_cast<double>(hidden_) * tokensPerSample_;
}

double
TokenEmbeddingLayer::lookupBytesPerSample() const
{
    return static_cast<double>(hidden_) * tokensPerSample_ * 4.0;
}

double
TokenEmbeddingLayer::outputBytesPerSample(double dtype_bytes) const
{
    return static_cast<double>(hidden_) * tokensPerSample_ * dtype_bytes;
}

std::unique_ptr<Layer>
TokenEmbeddingLayer::clone() const
{
    return std::make_unique<TokenEmbeddingLayer>(*this);
}

bool
TokenEmbeddingLayer::sameParams(const Layer &other) const
{
    const auto &o = static_cast<const TokenEmbeddingLayer &>(other);
    return vocabSize_ == o.vocabSize_ && hidden_ == o.hidden_ &&
        tokensPerSample_ == o.tokensPerSample_ &&
        tieFactor_ == o.tieFactor_;
}

// --- AttentionLayer -----------------------------------------------------------

AttentionLayer::AttentionLayer(std::string name, LayerClass cls,
                               long hidden, long num_heads,
                               long context_length, long kv_heads)
    : Layer(std::move(name), cls), hidden_(hidden), numHeads_(num_heads),
      contextLength_(context_length),
      kvHeads_(kv_heads > 0 ? kv_heads : num_heads)
{
    if (hidden < 1 || num_heads < 1 || context_length < 1)
        fatal(strfmt("AttentionLayer '%s': non-positive geometry",
                     this->name().c_str()));
    if (hidden % num_heads != 0)
        fatal(strfmt("AttentionLayer '%s': hidden %% num_heads != 0",
                     this->name().c_str()));
}

double
AttentionLayer::paramCount() const
{
    double h = static_cast<double>(hidden_);
    double head_dim = h / static_cast<double>(numHeads_);
    double kv_width = head_dim * static_cast<double>(kvHeads_);
    // Q and output projections are h x h; K and V shrink under GQA.
    return 2.0 * h * h + 2.0 * h * kv_width;
}

double
AttentionLayer::forwardFlopsPerSample() const
{
    double h = static_cast<double>(hidden_);
    double ctx = static_cast<double>(contextLength_);
    double proj = 2.0 * paramCount() * ctx; // GEMM: 2 FLOPs per weight.
    // Scores (QK^T) and weighted values: 2 * 2 * ctx^2 * h, causal
    // masking halves the effective score work.
    double quad = 2.0 * ctx * ctx * h;
    return proj + quad;
}

double
AttentionLayer::outputBytesPerSample(double dtype_bytes) const
{
    return static_cast<double>(hidden_) *
        static_cast<double>(contextLength_) * dtype_bytes;
}

std::unique_ptr<Layer>
AttentionLayer::clone() const
{
    return std::make_unique<AttentionLayer>(*this);
}

bool
AttentionLayer::sameParams(const Layer &other) const
{
    const auto &o = static_cast<const AttentionLayer &>(other);
    return hidden_ == o.hidden_ && numHeads_ == o.numHeads_ &&
        contextLength_ == o.contextLength_ && kvHeads_ == o.kvHeads_;
}

// --- FeedForwardLayer ---------------------------------------------------------

FeedForwardLayer::FeedForwardLayer(std::string name, LayerClass cls,
                                   long hidden, long ffn_dim,
                                   long context_length, int num_matrices)
    : Layer(std::move(name), cls), hidden_(hidden), ffnDim_(ffn_dim),
      contextLength_(context_length), numMatrices_(num_matrices)
{
    if (hidden < 1 || ffn_dim < 1 || context_length < 1)
        fatal(strfmt("FeedForwardLayer '%s': non-positive geometry",
                     this->name().c_str()));
    if (num_matrices < 2 || num_matrices > 3)
        fatal(strfmt("FeedForwardLayer '%s': num_matrices must be 2 or 3",
                     this->name().c_str()));
}

double
FeedForwardLayer::paramCount() const
{
    return static_cast<double>(numMatrices_) *
        static_cast<double>(hidden_) * static_cast<double>(ffnDim_);
}

double
FeedForwardLayer::forwardFlopsPerSample() const
{
    return 2.0 * paramCount() * static_cast<double>(contextLength_);
}

double
FeedForwardLayer::outputBytesPerSample(double dtype_bytes) const
{
    return static_cast<double>(hidden_) *
        static_cast<double>(contextLength_) * dtype_bytes;
}

std::unique_ptr<Layer>
FeedForwardLayer::clone() const
{
    return std::make_unique<FeedForwardLayer>(*this);
}

bool
FeedForwardLayer::sameParams(const Layer &other) const
{
    const auto &o = static_cast<const FeedForwardLayer &>(other);
    return hidden_ == o.hidden_ && ffnDim_ == o.ffnDim_ &&
        contextLength_ == o.contextLength_ &&
        numMatrices_ == o.numMatrices_;
}

// --- MoeFeedForwardLayer ------------------------------------------------------

MoeFeedForwardLayer::MoeFeedForwardLayer(std::string name, LayerClass cls,
                                         long hidden, long ffn_dim,
                                         long context_length,
                                         int num_experts, int active_experts,
                                         int num_matrices)
    : Layer(std::move(name), cls), hidden_(hidden), ffnDim_(ffn_dim),
      contextLength_(context_length), numExperts_(num_experts),
      activeExperts_(active_experts), numMatrices_(num_matrices)
{
    if (hidden < 1 || ffn_dim < 1 || context_length < 1)
        fatal(strfmt("MoeFeedForwardLayer '%s': non-positive geometry",
                     this->name().c_str()));
    if (num_experts < 1 || active_experts < 1 ||
        active_experts > num_experts) {
        fatal(strfmt("MoeFeedForwardLayer '%s': need 1 <= active <= experts",
                     this->name().c_str()));
    }
    if (num_matrices < 2 || num_matrices > 3)
        fatal(strfmt("MoeFeedForwardLayer '%s': num_matrices must be 2 or 3",
                     this->name().c_str()));
}

double
MoeFeedForwardLayer::paramCount() const
{
    // Capacity scales with all experts.
    return static_cast<double>(numExperts_) *
        static_cast<double>(numMatrices_) * static_cast<double>(hidden_) *
        static_cast<double>(ffnDim_);
}

double
MoeFeedForwardLayer::forwardFlopsPerSample() const
{
    // FLOPs scale only with the active experts per token.
    double per_expert = 2.0 * static_cast<double>(numMatrices_) *
        static_cast<double>(hidden_) * static_cast<double>(ffnDim_);
    return static_cast<double>(activeExperts_) * per_expert *
        static_cast<double>(contextLength_);
}

double
MoeFeedForwardLayer::outputBytesPerSample(double dtype_bytes) const
{
    return static_cast<double>(hidden_) *
        static_cast<double>(contextLength_) * dtype_bytes;
}

double
MoeFeedForwardLayer::routedBytesPerSample(double dtype_bytes) const
{
    // Each token's activations travel to its active experts.
    return static_cast<double>(activeExperts_) *
        static_cast<double>(hidden_) *
        static_cast<double>(contextLength_) * dtype_bytes;
}

std::unique_ptr<Layer>
MoeFeedForwardLayer::clone() const
{
    return std::make_unique<MoeFeedForwardLayer>(*this);
}

bool
MoeFeedForwardLayer::sameParams(const Layer &other) const
{
    const auto &o = static_cast<const MoeFeedForwardLayer &>(other);
    return hidden_ == o.hidden_ && ffnDim_ == o.ffnDim_ &&
        contextLength_ == o.contextLength_ &&
        numExperts_ == o.numExperts_ &&
        activeExperts_ == o.activeExperts_ &&
        numMatrices_ == o.numMatrices_;
}

// --- InteractionLayer ---------------------------------------------------------

InteractionLayer::InteractionLayer(std::string name, long num_features,
                                   long feature_dim, long output_dim)
    : Layer(std::move(name), LayerClass::BaseDense),
      numFeatures_(num_features), featureDim_(feature_dim),
      outputDim_(output_dim)
{
    if (num_features < 1 || feature_dim < 1 || output_dim < 1)
        fatal(strfmt("InteractionLayer '%s': non-positive geometry",
                     this->name().c_str()));
}

double
InteractionLayer::forwardFlopsPerSample() const
{
    // Pairwise dot products: F^2/2 pairs x 2*dim FLOPs each.
    double f = static_cast<double>(numFeatures_);
    return f * f * static_cast<double>(featureDim_);
}

double
InteractionLayer::outputBytesPerSample(double dtype_bytes) const
{
    return static_cast<double>(outputDim_) * dtype_bytes;
}

std::unique_ptr<Layer>
InteractionLayer::clone() const
{
    return std::make_unique<InteractionLayer>(*this);
}

bool
InteractionLayer::sameParams(const Layer &other) const
{
    const auto &o = static_cast<const InteractionLayer &>(other);
    return numFeatures_ == o.numFeatures_ && featureDim_ == o.featureDim_ &&
        outputDim_ == o.outputDim_;
}

} // namespace madmax
