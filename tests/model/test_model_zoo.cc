#include <gtest/gtest.h>

#include "model/model_zoo.hh"
#include "util/units.hh"

namespace madmax
{

using namespace units;

namespace
{

struct TableIIRow
{
    const char *name;
    double params;          ///< <= 0 when the paper leaves it blank.
    double flopsPerToken;
    double lookupBytes;     ///< <= 0 when blank.
    long globalBatch;
    long context;
};

// Table II of the paper, as published.
const TableIIRow kTableII[] = {
    {"DLRM-A", 793e9, 638e6, 22.61e6, 65536, 1},
    {"DLRM-A-Transformer", 795e9, 2.6e9, 13.19e6, 65536, 1},
    {"DLRM-A-MoE", -1, 957e6, 22.61e6, 65536, 1},
    {"DLRM-B", 332e9, 60e6, 49.2e3, 262144, 1},
    {"DLRM-B-Transformer", 333e9, 2.1e9, 32.8e3, 262144, 1},
    {"DLRM-B-MoE", -1, 90e6, 42.8e3, 262144, 1},
    {"GPT-3", 175e9, 350e9, -1, 2048, 2048},
    {"LLaMA-65B", 65.2e9, 130.4e9, -1, 2048, 2048},
    {"LLaMA2-70B", 70e9, 140e9, -1, 1024, 4096},
    {"LLM-MoE", 1.8e12, 550e9, -1, 512, 8192},
};

} // namespace

class TableIISuite : public ::testing::TestWithParam<size_t>
{
};

TEST_P(TableIISuite, AggregatesMatchPaper)
{
    const TableIIRow &row = kTableII[GetParam()];
    std::vector<ModelDesc> suite = model_zoo::tableIISuite();
    ASSERT_EQ(suite.size(), 10u);
    const ModelDesc &m = suite[GetParam()];
    EXPECT_EQ(m.name, row.name);
    EXPECT_NO_THROW(m.validate());

    ModelTotals t = m.graph.totals();
    if (row.params > 0) {
        EXPECT_NEAR(t.paramCount / row.params, 1.0, 0.03)
            << "param count off for " << row.name;
    }
    EXPECT_NEAR(m.forwardFlopsPerToken() / row.flopsPerToken, 1.0, 0.05)
        << "FLOPs/token off for " << row.name;
    if (row.lookupBytes > 0) {
        EXPECT_NEAR(t.lookupBytesPerSample / row.lookupBytes, 1.0, 0.02)
            << "lookup bytes off for " << row.name;
    }
    EXPECT_EQ(m.globalBatchSize, row.globalBatch);
    EXPECT_EQ(m.contextLength, row.context);
}

INSTANTIATE_TEST_SUITE_P(AllModels, TableIISuite,
                         ::testing::Range<size_t>(0, 10));

TEST(ModelZoo, DlrmEmbeddingDominatesParameters)
{
    // O1 / Insight 1: 99.96% of DLRM-A parameters live in embeddings.
    ModelDesc m = model_zoo::dlrmA();
    ModelTotals t = m.graph.totals();
    double emb = t.paramsByClass.at(LayerClass::SparseEmbedding);
    EXPECT_GT(emb / t.paramCount, 0.999);
}

TEST(ModelZoo, Gpt3WordEmbeddingsAreTiny)
{
    // Insight 2: word embeddings are ~0.37% of GPT-3.
    ModelDesc m = model_zoo::gpt3();
    ModelTotals t = m.graph.totals();
    double emb = t.paramsByClass.at(LayerClass::DenseEmbedding);
    EXPECT_LT(emb / t.paramCount, 0.005);
    EXPECT_GT(emb / t.paramCount, 0.002);
}

TEST(ModelZoo, RecommendationVsLlmResourceAsymmetry)
{
    // O2: DLRMs need >20x the sparse-lookup bandwidth of LLMs yet far
    // fewer FLOPs per sample.
    ModelDesc dlrm = model_zoo::dlrmA();
    ModelDesc llm = model_zoo::llama65b();
    double dlrm_lookup = dlrm.graph.totals().lookupBytesPerSample /
        dlrm.contextLength;
    double llm_lookup = llm.graph.totals().lookupBytesPerSample /
        llm.contextLength;
    EXPECT_GT(dlrm_lookup / llm_lookup, 20.0);
    EXPECT_LT(dlrm.forwardFlopsPerToken(), llm.forwardFlopsPerToken());
}

TEST(ModelZoo, MoeVariantsScaleCapacityFasterThanCompute)
{
    ModelDesc base = model_zoo::dlrmA();
    ModelDesc moe = model_zoo::dlrmAMoe();
    double base_dense = 0.0, moe_total = 0.0;
    auto bt = base.graph.totals();
    auto mt = moe.graph.totals();
    base_dense = bt.paramCount - bt.paramsByClass[LayerClass::SparseEmbedding];
    moe_total = mt.paramCount - mt.paramsByClass[LayerClass::SparseEmbedding];
    // Dense+expert capacity grows much faster than FLOPs.
    double capacity_ratio = moe_total / base_dense;
    double flops_ratio = mt.forwardFlopsPerSample / bt.forwardFlopsPerSample;
    EXPECT_GT(capacity_ratio, 5.0);
    EXPECT_LT(flops_ratio, 2.0);
}

TEST(ModelZoo, Llama2ContextVariant)
{
    ModelDesc base = model_zoo::llama2_70b();
    ModelDesc ctx8k = model_zoo::llama2WithContext(8192);
    EXPECT_EQ(ctx8k.contextLength, 8192);
    // Same architecture: parameter count unchanged.
    EXPECT_NEAR(ctx8k.graph.totals().paramCount /
                    base.graph.totals().paramCount,
                1.0, 1e-9);
    // The sequence batch is held while context doubles (Fig. 15), so
    // tokens per iteration double from the base's 4M.
    EXPECT_EQ(ctx8k.globalBatchSize, base.globalBatchSize);
    EXPECT_EQ(base.globalBatchSize * base.contextLength, 4194304);
    // Longer context means more FLOPs/token (quadratic attention).
    EXPECT_GT(ctx8k.forwardFlopsPerToken(), base.forwardFlopsPerToken());
}

TEST(ModelZoo, VitSizesMatchPublishedScales)
{
    struct { model_zoo::VitSize size; double params; } cases[] = {
        {model_zoo::VitSize::L, 0.30e9},
        {model_zoo::VitSize::H, 0.63e9},
        {model_zoo::VitSize::G, 1.84e9},
        {model_zoo::VitSize::B22, 21.7e9},
        {model_zoo::VitSize::B120, 120.8e9},
    };
    for (const auto &c : cases) {
        ModelDesc m = model_zoo::vit(c.size, 2048);
        EXPECT_NEAR(m.graph.totals().paramCount / c.params, 1.0, 0.06)
            << model_zoo::toString(c.size);
        EXPECT_EQ(m.globalBatchSize, 2048);
    }
}

TEST(ModelZoo, LlmMoeUsesSixteenExpertsTwoActive)
{
    ModelDesc m = model_zoo::llmMoe();
    bool found = false;
    for (int i = 0; i < m.graph.numLayers(); ++i) {
        if (m.graph.layer(i).kind() == LayerKind::MoeFeedForward) {
            const auto &moe =
                static_cast<const MoeFeedForwardLayer &>(m.graph.layer(i));
            EXPECT_EQ(moe.numExperts(), 16);
            EXPECT_EQ(moe.activeExperts(), 2);
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(ModelZoo, Llama2ServingClassShapesMatchThePaper)
{
    // LLaMA2-7B [Touvron et al.]: 32 layers of h = 4096, 32 full-KV
    // heads, SwiGLU ffn 11008 — about 6.7B parameters.
    ModelDesc m7 = model_zoo::llama2_7b();
    EXPECT_EQ(m7.name, "LLaMA2-7B");
    EXPECT_EQ(m7.contextLength, 4096);
    EXPECT_EQ(m7.globalBatchSize, 256);
    // Tok_EMB + 32 x (Attn, FFN) + head.
    EXPECT_EQ(m7.graph.layer(0).kind(), LayerKind::TokenEmbedding);
    EXPECT_EQ(m7.graph.layer(1).name(), "Attn_0");
    EXPECT_EQ(m7.graph.layer(2).name(), "FFN_0");
    EXPECT_NEAR(m7.graph.totals().paramCount / 6.7e9, 1.0, 0.05);
    const auto &attn7 =
        static_cast<const AttentionLayer &>(m7.graph.layer(1));
    EXPECT_EQ(attn7.hidden(), 4096);
    EXPECT_EQ(attn7.numHeads(), 32);
    EXPECT_EQ(attn7.kvHeads(), attn7.numHeads()); // Full KV, no GQA.

    // LLaMA2-13B: 40 layers of h = 5120, 40 heads, ffn 13824.
    ModelDesc m13 = model_zoo::llama2_13b(2048);
    EXPECT_EQ(m13.name, "LLaMA2-13B-ctx2048");
    EXPECT_EQ(m13.contextLength, 2048);
    EXPECT_NEAR(m13.graph.totals().paramCount / 13.0e9, 1.0, 0.05);
    const auto &attn13 =
        static_cast<const AttentionLayer &>(m13.graph.layer(1));
    EXPECT_EQ(attn13.hidden(), 5120);
    EXPECT_EQ(attn13.numHeads(), 40);
    int transformer_layers = 0;
    for (int i = 0; i < m13.graph.numLayers(); ++i)
        transformer_layers +=
            m13.graph.layer(i).kind() == LayerKind::Attention;
    EXPECT_EQ(transformer_layers, 40);

    // The serving prompt length is an architecture knob: shrinking it
    // leaves the parameter count alone but cuts the per-token KV cost
    // the inference model prices off contextLength.
    EXPECT_NEAR(m13.graph.totals().paramCount /
                    model_zoo::llama2_13b().graph.totals().paramCount,
                1.0, 1e-9);
}

TEST(ModelZoo, DlrmGraphShapeMatchesFig5)
{
    // Fig. 5 execution order: EMB, Bottom MLP, interaction, Top MLP;
    // interaction consumes both graph inputs.
    ModelDesc m = model_zoo::dlrmA();
    ASSERT_EQ(m.graph.numLayers(), 4);
    EXPECT_EQ(m.graph.layer(0).kind(), LayerKind::EmbeddingBag);
    EXPECT_EQ(m.graph.layer(1).kind(), LayerKind::Mlp);
    EXPECT_EQ(m.graph.layer(2).kind(), LayerKind::Interaction);
    EXPECT_EQ(m.graph.layer(3).kind(), LayerKind::Mlp);
    EXPECT_EQ(m.graph.deps(2), (std::vector<int>{0, 1}));
}

} // namespace madmax
