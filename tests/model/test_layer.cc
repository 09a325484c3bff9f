#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "model/layer.hh"
#include "util/logging.hh"

namespace madmax
{

TEST(MlpLayer, ParamsAndFlops)
{
    MlpLayer mlp("m", LayerClass::BaseDense, {4, 8, 2});
    // 4x8 + 8 biases + 8x2 + 2 biases = 58.
    EXPECT_DOUBLE_EQ(mlp.paramCount(), 58.0);
    // 2*(4*8 + 8*2) = 96 FLOPs per sample.
    EXPECT_DOUBLE_EQ(mlp.forwardFlopsPerSample(), 96.0);
    // Output: 2 elements.
    EXPECT_DOUBLE_EQ(mlp.outputBytesPerSample(4.0), 8.0);
    // Naive TP reduces at every boundary: 8 + 2 elements.
    EXPECT_DOUBLE_EQ(mlp.tpCommBytesPerSample(4.0), 40.0);
}

TEST(MlpLayer, TokensPerSampleScalesPositionWork)
{
    MlpLayer head("head", LayerClass::BaseDense, {4, 2}, 10.0);
    EXPECT_DOUBLE_EQ(head.forwardFlopsPerSample(), 2.0 * 4 * 2 * 10);
    EXPECT_DOUBLE_EQ(head.outputBytesPerSample(2.0), 2 * 10 * 2.0);
    // Params do not scale with positions.
    EXPECT_DOUBLE_EQ(head.paramCount(), 10.0);
}

TEST(MlpLayer, RejectsBadGeometry)
{
    EXPECT_THROW(MlpLayer("m", LayerClass::BaseDense, {4}), ConfigError);
    EXPECT_THROW(MlpLayer("m", LayerClass::BaseDense, {4, 0}),
                 ConfigError);
    EXPECT_THROW(MlpLayer("m", LayerClass::BaseDense, {4, 2}, 0.0),
                 ConfigError);
}

TEST(EmbeddingBagLayer, LookupMath)
{
    EmbeddingBagLayer emb("e", 10, 1000, 64, 4.0);
    EXPECT_DOUBLE_EQ(emb.paramCount(), 10.0 * 1000 * 64);
    // Lookups: 10 tables x 4 rows x 64 elems x 4 B.
    EXPECT_DOUBLE_EQ(emb.lookupBytesPerSample(), 10 * 4 * 64 * 4.0);
    // Pooled output: 10 tables x 64 elems.
    EXPECT_DOUBLE_EQ(emb.outputBytesPerSample(4.0), 10 * 64 * 4.0);
    // Pooling adds.
    EXPECT_DOUBLE_EQ(emb.forwardFlopsPerSample(), 10 * 4 * 64.0);
    EXPECT_EQ(emb.layerClass(), LayerClass::SparseEmbedding);
}

TEST(EmbeddingBagLayer, FractionalPoolingAllowed)
{
    // Sparse optional features can average under one lookup per table.
    EmbeddingBagLayer emb("e", 100, 1000, 64, 0.5);
    EXPECT_DOUBLE_EQ(emb.lookupBytesPerSample(), 100 * 0.5 * 64 * 4.0);
    EXPECT_THROW(EmbeddingBagLayer("e", 100, 1000, 64, 0.0), ConfigError);
}

TEST(TokenEmbeddingLayer, TieFactor)
{
    TokenEmbeddingLayer tied("t", 50000, 128, 2048.0, 1);
    EXPECT_DOUBLE_EQ(tied.paramCount(), 50000.0 * 128);
    TokenEmbeddingLayer untied("t", 50000, 128, 2048.0, 2);
    EXPECT_DOUBLE_EQ(untied.paramCount(), 2.0 * 50000 * 128);
    EXPECT_THROW(TokenEmbeddingLayer("t", 50000, 128, 2048.0, 3),
                 ConfigError);
    // One row per token.
    EXPECT_DOUBLE_EQ(tied.lookupBytesPerSample(), 128 * 2048 * 4.0);
    EXPECT_EQ(tied.layerClass(), LayerClass::DenseEmbedding);
}

TEST(AttentionLayer, ParamAndFlopFormulas)
{
    AttentionLayer attn("a", LayerClass::Transformer, 1024, 16, 512);
    // 4 h^2 projections.
    EXPECT_DOUBLE_EQ(attn.paramCount(), 4.0 * 1024 * 1024);
    // 2*params*ctx + 2*ctx^2*h.
    double expected = 2.0 * attn.paramCount() * 512 +
        2.0 * 512 * 512 * 1024;
    EXPECT_DOUBLE_EQ(attn.forwardFlopsPerSample(), expected);
    EXPECT_DOUBLE_EQ(attn.outputBytesPerSample(2.0), 1024 * 512 * 2.0);
    // Megatron-style TP only reduces the block output.
    EXPECT_DOUBLE_EQ(attn.tpCommBytesPerSample(2.0),
                     attn.outputBytesPerSample(2.0));
}

TEST(AttentionLayer, GqaShrinksKvProjections)
{
    AttentionLayer mha("a", LayerClass::Transformer, 8192, 64, 4096);
    AttentionLayer gqa("a", LayerClass::Transformer, 8192, 64, 4096, 8);
    EXPECT_LT(gqa.paramCount(), mha.paramCount());
    // Q + O projections unchanged: 2h^2; KV shrink by 8x.
    double expected = 2.0 * 8192 * 8192 + 2.0 * 8192 * (8192 / 64 * 8);
    EXPECT_DOUBLE_EQ(gqa.paramCount(), expected);
}

TEST(AttentionLayer, RejectsIndivisibleHeads)
{
    EXPECT_THROW(
        AttentionLayer("a", LayerClass::Transformer, 100, 3, 128),
        ConfigError);
}

TEST(FeedForwardLayer, SwigluUsesThreeMatrices)
{
    FeedForwardLayer gelu("f", LayerClass::Transformer, 1024, 4096, 512);
    FeedForwardLayer swiglu("f", LayerClass::Transformer, 1024, 4096, 512,
                            3);
    EXPECT_DOUBLE_EQ(gelu.paramCount(), 2.0 * 1024 * 4096);
    EXPECT_DOUBLE_EQ(swiglu.paramCount(), 3.0 * 1024 * 4096);
    EXPECT_DOUBLE_EQ(gelu.forwardFlopsPerSample(),
                     2.0 * gelu.paramCount() * 512);
    EXPECT_THROW(
        FeedForwardLayer("f", LayerClass::Transformer, 1024, 4096, 512, 4),
        ConfigError);
}

TEST(MoeFeedForwardLayer, CapacityVsComputeScaling)
{
    // The MoE property (§II-A): capacity scales with all experts,
    // FLOPs only with the active ones.
    FeedForwardLayer dense("f", LayerClass::Transformer, 1024, 4096, 512);
    MoeFeedForwardLayer moe("m", LayerClass::MoE, 1024, 4096, 512, 16, 2);
    EXPECT_DOUBLE_EQ(moe.paramCount(), 16.0 * dense.paramCount());
    EXPECT_DOUBLE_EQ(moe.forwardFlopsPerSample(),
                     2.0 * dense.forwardFlopsPerSample());
    // Each token visits 2 experts in each direction.
    EXPECT_DOUBLE_EQ(moe.routedBytesPerSample(2.0),
                     2.0 * 1024 * 512 * 2.0);
}

TEST(MoeFeedForwardLayer, RejectsBadExpertCounts)
{
    EXPECT_THROW(
        MoeFeedForwardLayer("m", LayerClass::MoE, 8, 8, 1, 4, 5),
        ConfigError);
    EXPECT_THROW(
        MoeFeedForwardLayer("m", LayerClass::MoE, 8, 8, 1, 0, 0),
        ConfigError);
}

TEST(InteractionLayer, PairwiseDotProducts)
{
    InteractionLayer inter("i", 100, 64, 512);
    EXPECT_DOUBLE_EQ(inter.paramCount(), 0.0);
    EXPECT_DOUBLE_EQ(inter.forwardFlopsPerSample(), 100.0 * 100 * 64);
    EXPECT_DOUBLE_EQ(inter.outputBytesPerSample(4.0), 512 * 4.0);
}

TEST(Layer, KindAndClassNames)
{
    EXPECT_EQ(toString(LayerKind::EmbeddingBag), "EMB");
    EXPECT_EQ(toString(LayerKind::Attention), "ATTN");
    EXPECT_EQ(toString(LayerClass::BaseDense), "base-dense");
    EXPECT_EQ(toString(LayerClass::SparseEmbedding), "sparse-embedding");
}

TEST(Layer, CloneIsDeep)
{
    MlpLayer mlp("m", LayerClass::BaseDense, {4, 8, 2});
    auto copy = mlp.clone();
    EXPECT_EQ(copy->name(), "m");
    EXPECT_DOUBLE_EQ(copy->paramCount(), mlp.paramCount());
    EXPECT_EQ(copy->kind(), LayerKind::Mlp);
}

// --- Layer::sameShape ---------------------------------------------------

namespace
{

/**
 * @p base matches a renamed copy of itself and differs from every
 * layer in @p variants, each changing one constructor parameter (or
 * the class); the relation is checked in both directions.
 */
void
expectShapeFamily(const Layer &base, const Layer &renamed,
                  const std::vector<const Layer *> &variants)
{
    ASSERT_NE(base.name(), renamed.name());
    EXPECT_TRUE(base.sameShape(base));
    EXPECT_TRUE(base.sameShape(renamed));
    EXPECT_TRUE(renamed.sameShape(base));
    for (size_t i = 0; i < variants.size(); ++i) {
        EXPECT_FALSE(base.sameShape(*variants[i])) << "variant " << i;
        EXPECT_FALSE(variants[i]->sameShape(base)) << "variant " << i;
    }
}

} // namespace

TEST(LayerShape, Mlp)
{
    const LayerClass bd = LayerClass::BaseDense;
    MlpLayer base("m", bd, {4, 8, 2}, 3.0);
    MlpLayer renamed("other", bd, {4, 8, 2}, 3.0);
    MlpLayer width("m", bd, {4, 9, 2}, 3.0);
    MlpLayer depth("m", bd, {4, 8, 8, 2}, 3.0);
    MlpLayer tokens("m", bd, {4, 8, 2}, 4.0);
    MlpLayer cls("m", LayerClass::Transformer, {4, 8, 2}, 3.0);
    expectShapeFamily(base, renamed, {&width, &depth, &tokens, &cls});
}

TEST(LayerShape, EmbeddingBag)
{
    EmbeddingBagLayer base("e", 10, 1000, 64, 4.0, 4.0, 1.5);
    EmbeddingBagLayer renamed("f", 10, 1000, 64, 4.0, 4.0, 1.5);
    EmbeddingBagLayer tables("e", 11, 1000, 64, 4.0, 4.0, 1.5);
    EmbeddingBagLayer rows("e", 10, 1001, 64, 4.0, 4.0, 1.5);
    EmbeddingBagLayer dim("e", 10, 1000, 32, 4.0, 4.0, 1.5);
    EmbeddingBagLayer pooling("e", 10, 1000, 64, 4.5, 4.0, 1.5);
    EmbeddingBagLayer element("e", 10, 1000, 64, 4.0, 2.0, 1.5);
    EmbeddingBagLayer skew("e", 10, 1000, 64, 4.0, 4.0, 1.0);
    expectShapeFamily(base, renamed,
                      {&tables, &rows, &dim, &pooling, &element, &skew});
}

TEST(LayerShape, TokenEmbedding)
{
    TokenEmbeddingLayer base("t", 50000, 128, 2048.0, 1);
    TokenEmbeddingLayer renamed("u", 50000, 128, 2048.0, 1);
    TokenEmbeddingLayer vocab("t", 50001, 128, 2048.0, 1);
    TokenEmbeddingLayer hidden("t", 50000, 256, 2048.0, 1);
    TokenEmbeddingLayer tokens("t", 50000, 128, 1024.0, 1);
    TokenEmbeddingLayer tie("t", 50000, 128, 2048.0, 2);
    expectShapeFamily(base, renamed, {&vocab, &hidden, &tokens, &tie});
}

TEST(LayerShape, Attention)
{
    const LayerClass tr = LayerClass::Transformer;
    AttentionLayer base("a", tr, 1024, 16, 512, 8);
    AttentionLayer renamed("b", tr, 1024, 16, 512, 8);
    AttentionLayer hidden("a", tr, 2048, 16, 512, 8);
    AttentionLayer heads("a", tr, 1024, 32, 512, 8);
    AttentionLayer context("a", tr, 1024, 16, 256, 8);
    AttentionLayer kvHeads("a", tr, 1024, 16, 512, 4);
    AttentionLayer cls("a", LayerClass::BaseDense, 1024, 16, 512, 8);
    expectShapeFamily(base, renamed,
                      {&hidden, &heads, &context, &kvHeads, &cls});

    // kv_heads = 0 means "as many as query heads": the same shape.
    AttentionLayer mha("a", tr, 1024, 16, 512);
    AttentionLayer explicitMha("a", tr, 1024, 16, 512, 16);
    EXPECT_TRUE(mha.sameShape(explicitMha));
}

TEST(LayerShape, FeedForward)
{
    const LayerClass tr = LayerClass::Transformer;
    FeedForwardLayer base("f", tr, 1024, 4096, 512, 2);
    FeedForwardLayer renamed("g", tr, 1024, 4096, 512, 2);
    FeedForwardLayer hidden("f", tr, 2048, 4096, 512, 2);
    FeedForwardLayer ffn("f", tr, 1024, 8192, 512, 2);
    FeedForwardLayer context("f", tr, 1024, 4096, 256, 2);
    FeedForwardLayer matrices("f", tr, 1024, 4096, 512, 3);
    FeedForwardLayer cls("f", LayerClass::MoE, 1024, 4096, 512, 2);
    expectShapeFamily(base, renamed,
                      {&hidden, &ffn, &context, &matrices, &cls});
}

TEST(LayerShape, MoeFeedForward)
{
    const LayerClass moe = LayerClass::MoE;
    MoeFeedForwardLayer base("m", moe, 1024, 4096, 512, 16, 2, 2);
    MoeFeedForwardLayer renamed("n", moe, 1024, 4096, 512, 16, 2, 2);
    MoeFeedForwardLayer hidden("m", moe, 2048, 4096, 512, 16, 2, 2);
    MoeFeedForwardLayer ffn("m", moe, 1024, 2048, 512, 16, 2, 2);
    MoeFeedForwardLayer context("m", moe, 1024, 4096, 256, 16, 2, 2);
    MoeFeedForwardLayer experts("m", moe, 1024, 4096, 512, 8, 2, 2);
    MoeFeedForwardLayer active("m", moe, 1024, 4096, 512, 16, 1, 2);
    MoeFeedForwardLayer matrices("m", moe, 1024, 4096, 512, 16, 2, 3);
    MoeFeedForwardLayer cls("m", LayerClass::Transformer, 1024, 4096, 512,
                            16, 2, 2);
    expectShapeFamily(base, renamed,
                      {&hidden, &ffn, &context, &experts, &active,
                       &matrices, &cls});
}

TEST(LayerShape, Interaction)
{
    InteractionLayer base("i", 100, 64, 512);
    InteractionLayer renamed("j", 100, 64, 512);
    InteractionLayer features("i", 101, 64, 512);
    InteractionLayer featureDim("i", 100, 32, 512);
    InteractionLayer output("i", 100, 64, 256);
    expectShapeFamily(base, renamed, {&features, &featureDim, &output});
}

TEST(LayerShape, KindsNeverMatch)
{
    // An FFN and an MoE FFN with one expert compute the same thing but
    // are different layer types, so never the same shape.
    const LayerClass tr = LayerClass::Transformer;
    FeedForwardLayer ffn("f", tr, 1024, 4096, 512, 2);
    MoeFeedForwardLayer moe("f", tr, 1024, 4096, 512, 1, 1, 2);
    EXPECT_FALSE(ffn.sameShape(moe));
    EXPECT_FALSE(moe.sameShape(ffn));

    // A clone keeps its shape (and name).
    std::unique_ptr<Layer> copy = moe.clone();
    EXPECT_TRUE(copy->sameShape(moe));
}

} // namespace madmax
