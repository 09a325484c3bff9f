/**
 * @file
 * Model zoo: the suite of large ML models evaluated in the paper
 * (Table II) plus the ViT family used for validation (Fig. 8).
 *
 * Internal geometries of the production DLRMs are proprietary; the
 * geometries here are chosen so that each model's *aggregate*
 * characteristics — parameter count, forward FLOPs per sample/token,
 * sparse-lookup bytes per sample — match the published Table II values
 * (see tests/model/test_model_zoo.cc for the tolerance checks).
 */

#ifndef MADMAX_MODEL_MODEL_ZOO_HH
#define MADMAX_MODEL_MODEL_ZOO_HH

#include <optional>
#include <string>
#include <vector>

#include "model/model_desc.hh"

namespace madmax::model_zoo
{

/** A stack of transformer blocks, each attention then FFN. */
struct TransformerSpec
{
    long layers = 0;
    long hidden = 0;
    long heads = 0;
    long kvHeads = 0;     ///< Grouped-query KV heads; 0 = one per head.
    long seq = 0;         ///< Tokens per sample.
    long ffn = 0;         ///< FFN inner dimension.
    int ffnMatrices = 2;  ///< 3 for gated (SwiGLU) FFNs.
};

/**
 * A DLRM: sparse embedding and bottom MLP feeding either a transformer
 * feature interaction or a dot-product interaction layer, then an
 * optional MoE top layer and an optional top MLP.
 */
struct DlrmSpec
{
    std::string name;
    long globalBatch = 1;
    DataType computeDtype = DataType::TF32;
    DataType paramDtype = DataType::FP32;

    long tables = 0;
    long rowsPerTable = 0;
    long embeddingDim = 0;
    double pooling = 0.0;  ///< Average lookups per table per sample.
    std::vector<long> bottomMlp;

    /** Replaces the interaction layer, whose output width is otherwise
     *  the top MLP's input width (512 without a top MLP). */
    std::optional<TransformerSpec> transformer;

    struct MoeTop
    {
        std::optional<long> hidden;  ///< Absent: the width below.
        long ffn = 0;
        int experts = 0;
        int active = 0;
    };
    std::optional<MoeTop> moe;

    std::optional<std::vector<long>> topMlp;
    std::string topMlpName = "Top_MLP";
};

/** A decoder LLM: token embedding then a transformer stack whose FFNs
 *  are optionally MoE layers. */
struct LlmSpec
{
    std::string name;
    long globalBatch = 1;
    long vocab = 0;
    int tieFactor = 1;  ///< 1 = tied input/output embeddings, 2 = untied.
    TransformerSpec blocks;  ///< blocks.seq is the context length.

    struct Moe
    {
        int experts = 0;
        int active = 0;
    };
    std::optional<Moe> moe;  ///< Makes every FFN a MoE layer.

    DataType computeDtype = DataType::BF16;
    DataType paramDtype = DataType::BF16;
};

/** The only places DLRM and LLM graphs are wired: each zoo factory
 *  below is a spec passed to its family's builder, and loadModel()
 *  parses "dlrm" / "llm" documents into the same specs. */
ModelDesc buildDlrm(const DlrmSpec &spec);
ModelDesc buildLlm(const LlmSpec &spec);

/** @name Recommendation models (Table II, left half) */
/// @{
ModelDesc dlrmA();            ///< 793B params, 638M FLOPs/sample.
ModelDesc dlrmATransformer(); ///< 795B params, 2.6B FLOPs/sample, seq 80.
ModelDesc dlrmAMoe();         ///< 957M FLOPs/sample, 16 experts (2 active).
ModelDesc dlrmB();            ///< 332B params, 60M FLOPs/sample.
ModelDesc dlrmBTransformer(); ///< 333B params, 2.1B FLOPs/sample.
ModelDesc dlrmBMoe();         ///< 90M FLOPs/sample.
/// @}

/** @name LLMs (Table II, right half) */
/// @{
ModelDesc gpt3();      ///< 175B params, 350B FLOPs/token, ctx 2048.
ModelDesc llama65b();  ///< 65.2B params, 130.4B FLOPs/token, ctx 2048.
ModelDesc llama2_70b();///< 70B params (GQA), 140B FLOPs/token, ctx 4096.

/**
 * LLaMA2-70B architecture with a custom context length (Fig. 15's 8K
 * point doubles the base context while holding the architecture).
 */
ModelDesc llama2WithContext(long context_length);

/**
 * @name Serving-class LLaMA2 sizes
 * The 7B/13B checkpoints everyone actually deploys (no GQA — full KV
 * heads, which is exactly what makes their KV caches grow fast and
 * decode go memory-bound). Default global batch is a serving batch
 * (256 in-flight sequences), not a training batch.
 */
/// @{
ModelDesc llama2_7b(long context_length = 4096);  ///< 32L, h=4096.
ModelDesc llama2_13b(long context_length = 4096); ///< 40L, h=5120.
/// @}

ModelDesc llmMoe();    ///< Hypothetical 1.8T params, 16-way MoE, ctx 8192.
/// @}

/** ViT sizes for the Fig. 8 validation study. */
enum class VitSize
{
    L,     ///< ~0.3B params.
    H,     ///< ~0.6B.
    G,     ///< ~1.8B.
    B22,   ///< ~22B.
    B120,  ///< ~120B.
};

/**
 * Vision Transformer on 224x224 images with 16x16 patches (197-token
 * sequences).
 *
 * @param size Model scale.
 * @param global_batch Global batch size (paper uses 2K or 4K).
 */
ModelDesc vit(VitSize size, long global_batch);

std::string toString(VitSize size);

/** All ten Table II models in paper column order (for Fig. 10). */
std::vector<ModelDesc> tableIISuite();

} // namespace madmax::model_zoo

#endif // MADMAX_MODEL_MODEL_ZOO_HH
