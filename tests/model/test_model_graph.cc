#include <gtest/gtest.h>

#include <memory>

#include "model/model_desc.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

std::unique_ptr<Layer>
mlp(const std::string &name, std::vector<long> dims = {4, 8, 2})
{
    return std::make_unique<MlpLayer>(name, LayerClass::BaseDense,
                                      std::move(dims));
}

/** DLRM-shaped graph: EMB and Bot feed Interact, then Top. */
ModelGraph
dlrmShape()
{
    ModelGraph g;
    int emb = g.addLayer(std::make_unique<EmbeddingBagLayer>(
        "EMB", 10, 100, 16, 2.0));
    int bot = g.addLayer(mlp("Bot"));
    int inter = g.addLayer(
        std::make_unique<InteractionLayer>("Int", 11, 16, 32), {emb, bot});
    g.addLayer(mlp("Top", {32, 64, 1}), {inter});
    return g;
}

} // namespace

TEST(ModelGraph, AddAndQuery)
{
    ModelGraph g = dlrmShape();
    EXPECT_EQ(g.numLayers(), 4);
    EXPECT_FALSE(g.empty());
    EXPECT_EQ(g.layer(0).name(), "EMB");
    EXPECT_EQ(g.layer(3).name(), "Top");
    EXPECT_TRUE(g.deps(0).empty());
    EXPECT_TRUE(g.deps(1).empty());
    EXPECT_EQ(g.deps(2), (std::vector<int>{0, 1}));
    EXPECT_EQ(g.deps(3), (std::vector<int>{2}));
}

TEST(ModelGraph, ForwardOnlyDependencies)
{
    ModelGraph g;
    g.addLayer(mlp("a"));
    // Self- and forward-references are user errors.
    EXPECT_THROW(g.addLayer(mlp("b"), {1}), ConfigError);
    EXPECT_THROW(g.addLayer(mlp("b"), {5}), ConfigError);
    EXPECT_THROW(g.addLayer(mlp("b"), {-1}), ConfigError);
}

TEST(ModelGraph, TotalsAggregateAcrossLayers)
{
    ModelGraph g = dlrmShape();
    ModelTotals t = g.totals();
    double expected_params = 10.0 * 100 * 16 +         // EMB
        (4 * 8 + 8 + 8 * 2 + 2) +                      // Bot
        0.0 +                                          // Interact
        (32 * 64 + 64 + 64 * 1 + 1);                   // Top
    EXPECT_DOUBLE_EQ(t.paramCount, expected_params);
    EXPECT_DOUBLE_EQ(t.lookupBytesPerSample, 10 * 2 * 16 * 4.0);
    EXPECT_GT(t.forwardFlopsPerSample, 0.0);
    EXPECT_DOUBLE_EQ(t.paramsByClass.at(LayerClass::SparseEmbedding),
                     10.0 * 100 * 16);
}

TEST(ModelGraph, LayersOfClass)
{
    ModelGraph g = dlrmShape();
    ASSERT_EQ(g.numLayers(), 4);
    EXPECT_EQ(g.layer(0).layerClass(), LayerClass::SparseEmbedding);
    for (int i : {1, 2, 3})
        EXPECT_EQ(g.layer(i).layerClass(), LayerClass::BaseDense);
    EXPECT_FALSE(g.hasClass(LayerClass::MoE));
    EXPECT_TRUE(g.hasClass(LayerClass::SparseEmbedding));
    EXPECT_FALSE(g.hasClass(LayerClass::Transformer));
}

TEST(ModelGraph, CopyIsDeep)
{
    ModelGraph g = dlrmShape();
    ModelGraph copy = g;
    EXPECT_EQ(copy.numLayers(), g.numLayers());
    EXPECT_EQ(copy.layer(0).name(), "EMB");
    // Addresses differ: layers were cloned, not shared.
    EXPECT_NE(&copy.layer(0), &g.layer(0));

    EXPECT_TRUE(copy.hasClass(LayerClass::SparseEmbedding));
    EXPECT_FALSE(copy.hasClass(LayerClass::Transformer));

    ModelGraph assigned;
    assigned = g;
    EXPECT_EQ(assigned.numLayers(), 4);
    EXPECT_NE(&assigned.layer(2), &g.layer(2));
    EXPECT_TRUE(assigned.hasClass(LayerClass::BaseDense));

    // Moves carry the present-class set along and leave the source
    // empty of classes as well as layers.
    ModelGraph moved = std::move(copy);
    EXPECT_TRUE(moved.hasClass(LayerClass::SparseEmbedding));
    EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(copy.hasClass(LayerClass::SparseEmbedding));
}

TEST(ModelGraph, OutOfRangeAccessPanics)
{
    ModelGraph g = dlrmShape();
    EXPECT_THROW(g.layer(4), InternalError);
    EXPECT_THROW(g.layer(-1), InternalError);
    EXPECT_THROW(g.deps(99), InternalError);
}

TEST(ModelDesc, ValidationAndTokenMath)
{
    ModelDesc m;
    m.name = "tiny";
    m.graph = dlrmShape();
    m.globalBatchSize = 1024;
    m.contextLength = 1;
    EXPECT_NO_THROW(m.validate());

    m.contextLength = 8;
    EXPECT_DOUBLE_EQ(m.forwardFlopsPerToken(),
                     m.graph.totals().forwardFlopsPerSample / 8.0);

    m.globalBatchSize = 0;
    EXPECT_THROW(m.validate(), ConfigError);

    ModelDesc empty;
    empty.name = "empty";
    EXPECT_THROW(empty.validate(), ConfigError);
}

} // namespace madmax
