#include "model/model_zoo.hh"

#include <memory>

#include "util/logging.hh"

namespace madmax::model_zoo
{

namespace
{

/**
 * Append @p t.layers transformer blocks; the first block consumes all
 * of @p inputs (e.g. both the embedding All2All output and the bottom
 * MLP in a DLRM), later blocks chain linearly. With @p moe every FFN
 * is a MoE layer.
 */
int
appendTransformer(ModelGraph &graph, std::vector<int> inputs,
                  const TransformerSpec &t,
                  const LlmSpec::Moe *moe = nullptr)
{
    int prev = -1;
    for (long i = 0; i < t.layers; ++i) {
        std::vector<int> deps =
            (i == 0) ? inputs : std::vector<int>{prev};
        const std::string n = std::to_string(i);
        int attn = graph.addLayer(std::make_unique<AttentionLayer>(
            "Attn_" + n, LayerClass::Transformer, t.hidden, t.heads, t.seq,
            t.kvHeads), std::move(deps));
        if (moe) {
            prev = graph.addLayer(std::make_unique<MoeFeedForwardLayer>(
                "MoE_FFN_" + n, LayerClass::MoE, t.hidden, t.ffn, t.seq,
                moe->experts, moe->active, t.ffnMatrices), {attn});
        } else {
            prev = graph.addLayer(std::make_unique<FeedForwardLayer>(
                "FFN_" + n, LayerClass::Transformer, t.hidden, t.ffn,
                t.seq, t.ffnMatrices), {attn});
        }
    }
    return prev;
}

} // namespace

ModelDesc
buildDlrm(const DlrmSpec &s)
{
    ModelDesc m;
    m.name = s.name;
    m.globalBatchSize = s.globalBatch;
    m.contextLength = 1;
    m.isRecommendation = true;
    m.computeDtype = s.computeDtype;
    m.paramDtype = s.paramDtype;

    int emb = m.graph.addLayer(std::make_unique<EmbeddingBagLayer>(
        "EMB", s.tables, s.rowsPerTable, s.embeddingDim, s.pooling));
    int bot = m.graph.addLayer(std::make_unique<MlpLayer>(
        "Bot_MLP", LayerClass::BaseDense, s.bottomMlp));

    int trunk;
    long width;
    if (s.transformer) {
        trunk = appendTransformer(m.graph, {emb, bot}, *s.transformer);
        width = s.transformer->hidden;
    } else {
        width = s.topMlp && !s.topMlp->empty() ? s.topMlp->front() : 512;
        trunk = m.graph.addLayer(std::make_unique<InteractionLayer>(
            "Interact", s.tables + 1, s.embeddingDim, width), {emb, bot});
    }
    if (s.moe) {
        trunk = m.graph.addLayer(std::make_unique<MoeFeedForwardLayer>(
            "MoE_Top", LayerClass::MoE, s.moe->hidden.value_or(width),
            s.moe->ffn, 1, s.moe->experts, s.moe->active), {trunk});
    }
    if (s.topMlp) {
        m.graph.addLayer(std::make_unique<MlpLayer>(
            s.topMlpName, LayerClass::BaseDense, *s.topMlp), {trunk});
    }
    return m;
}

ModelDesc
buildLlm(const LlmSpec &s)
{
    ModelDesc m;
    m.name = s.name;
    m.globalBatchSize = s.globalBatch;
    m.contextLength = s.blocks.seq;
    m.isRecommendation = false;
    m.computeDtype = s.computeDtype;
    m.paramDtype = s.paramDtype;

    int emb = m.graph.addLayer(std::make_unique<TokenEmbeddingLayer>(
        "Tok_EMB", s.vocab, s.blocks.hidden,
        static_cast<double>(s.blocks.seq), s.tieFactor));
    appendTransformer(m.graph, {emb}, s.blocks, s.moe ? &*s.moe : nullptr);
    return m;
}

namespace
{

/** @p layers transformer blocks with full multi-head attention and
 *  two-matrix FFNs. */
TransformerSpec
blocks(long layers, long hidden, long heads, long seq, long ffn)
{
    TransformerSpec t;
    t.layers = layers;
    t.hidden = hidden;
    t.heads = heads;
    t.seq = seq;
    t.ffn = ffn;
    return t;
}

/** DLRM-A's and DLRM-B's shared bottom half, named and batched. */
DlrmSpec
dlrm(const char *name, long global_batch, long tables, long rows_per_table,
     long dim, double pooling, std::vector<long> bottom_mlp)
{
    DlrmSpec s;
    s.name = name;
    s.globalBatch = global_batch;
    s.tables = tables;
    s.rowsPerTable = rows_per_table;
    s.embeddingDim = dim;
    s.pooling = pooling;
    s.bottomMlp = std::move(bottom_mlp);
    return s;
}

/** 16 experts, 2 active, on the top stack, then a one-output head. */
void
addMoeTop(DlrmSpec &s, long width, long ffn)
{
    s.moe = DlrmSpec::MoeTop{std::nullopt, ffn, 16, 2};
    s.topMlp = std::vector<long>{width, 1};
    s.topMlpName = "Head";
}

} // namespace

ModelDesc
dlrmA()
{
    // Targets: 793B params (99.96% embedding), 638M FLOPs/sample,
    // 22.61 MB lookup bytes/sample, global batch 64K. 500 tables at
    // dim 128 put the pooled All2All payload at 256 KB/sample, which
    // reproduces the measured 1.2 MQPS on ZionEX (Table I).
    // 500 x 12385672 x 128 = 792.7B params; 500 x 88.32 x 128 x 4B =
    // 22.61 MB.
    DlrmSpec s = dlrm("DLRM-A", 65536, 500, 12385672, 128, 88.32,
                      {256, 512, 256, 128});
    s.topMlp = std::vector<long>{512, 8192, 8192, 8192, 8192, 8192, 4096, 1};
    return buildDlrm(s);
}

ModelDesc
dlrmATransformer()
{
    // Targets: 795B params, 2.6B FLOPs/sample, 13.19 MB lookups,
    // 4 transformer layers over a down-sampled sequence of 80
    // sparse-feature tokens at width 512; the first block consumes
    // both the A2A'd embeddings and the bottom MLP output.
    DlrmSpec s = dlrm("DLRM-A-Transformer", 65536, 500, 12421400, 128,
                      51.52, {256, 512, 256, 128});
    s.transformer = blocks(4, 512, 8, 80, 2816);
    s.topMlp = std::vector<long>{512, 4096, 4096, 1};
    return buildDlrm(s);
}

ModelDesc
dlrmAMoe()
{
    // Targets: 957M FLOPs/sample; 16 experts, 2 active, on the top
    // stack; embedding identical to DLRM-A.
    DlrmSpec s = dlrm("DLRM-A-MoE", 65536, 500, 12385672, 128, 88.32,
                      {256, 512, 256, 128});
    addMoeTop(s, 512, 224274);
    return buildDlrm(s);
}

ModelDesc
dlrmB()
{
    // Targets: 332B params, 60M FLOPs/sample, 49.2 KB lookups,
    // global batch 256K. 48 x 108062000 x 64 = 332B params;
    // 48 x 4 x 64 x 4B = 49.2 KB.
    DlrmSpec s = dlrm("DLRM-B", 262144, 48, 108062000, 64, 4.0,
                      {128, 256, 128, 64});
    s.topMlp = std::vector<long>{256, 2048, 4096, 4096, 1024, 1};
    return buildDlrm(s);
}

ModelDesc
dlrmBTransformer()
{
    // Targets: 333B params, 2.1B FLOPs/sample, 32.8 KB lookups.
    DlrmSpec s = dlrm("DLRM-B-Transformer", 262144, 48, 108387000, 64,
                      2.67, {128, 256, 128, 64});
    s.transformer = blocks(4, 512, 8, 80, 2048);
    s.topMlp = std::vector<long>{512, 2048, 4096, 4096, 1024, 1};
    return buildDlrm(s);
}

ModelDesc
dlrmBMoe()
{
    // Targets: 90M FLOPs/sample, 42.8 KB lookups.
    DlrmSpec s = dlrm("DLRM-B-MoE", 262144, 48, 108062000, 64, 3.48,
                      {128, 256, 128, 64});
    addMoeTop(s, 256, 43359);
    return buildDlrm(s);
}

namespace
{

/** Token embedding over @p vocab, then @p t. */
LlmSpec
llm(std::string name, long global_batch, long vocab, int tie_factor,
    TransformerSpec t)
{
    LlmSpec s;
    s.name = std::move(name);
    s.globalBatch = global_batch;
    s.vocab = vocab;
    s.tieFactor = tie_factor;
    s.blocks = t;
    return s;
}

/** The LLaMA recipe: untied embeddings over a 32K vocabulary and
 *  SwiGLU FFNs. */
LlmSpec
llama(std::string name, long global_batch, TransformerSpec t)
{
    t.ffnMatrices = 3;
    return llm(std::move(name), global_batch, 32000, 2, t);
}

/** "<base>" at the published 4096-token context, else "<base>-ctxN". */
std::string
withContext(const std::string &base, long context_length)
{
    return context_length == 4096
        ? base
        : base + "-ctx" + std::to_string(context_length);
}

} // namespace

ModelDesc
gpt3()
{
    // GPT-3 175B [Brown et al.]: 96 layers, h = 12288, 96 heads,
    // ctx 2048; 350B FLOPs/token; word embeddings 0.37% of params.
    // 2K sequences = 4M tokens per batch.
    return buildLlm(
        llm("GPT-3", 2048, 50257, 1, blocks(96, 12288, 96, 2048, 49152)));
}
ModelDesc
llama65b()
{
    // LLaMA-65B [Touvron et al.]: 80 layers, h = 8192, SwiGLU
    // ffn 22016, ctx 2048; 130.4B FLOPs/token.
    return buildLlm(
        llama("LLaMA-65B", 2048, blocks(80, 8192, 64, 2048, 22016)));
}

ModelDesc
llama2WithContext(long context_length)
{
    // LLaMA2-70B [Touvron et al.]: 80 layers, h = 8192, GQA with 8 KV
    // heads, SwiGLU ffn 28672; 140B FLOPs/token at ctx 4096.
    // The Fig. 15 sweep holds the sequence batch fixed while the
    // context doubles (the paper's 8K point keeps the architecture
    // and batch recipe of base LLaMA2).
    LlmSpec s = llama(withContext("LLaMA2-70B", context_length), 1024,
                      blocks(80, 8192, 64, context_length, 28672));
    s.blocks.kvHeads = 8;
    return buildLlm(s);
}

ModelDesc
llama2_70b()
{
    return llama2WithContext(4096);
}

ModelDesc
llama2_7b(long context_length)
{
    // LLaMA2-7B [Touvron et al.]: 32 layers, h = 4096, 32 heads (full
    // KV), SwiGLU ffn 11008. 256 is a serving batch of in-flight
    // sequences.
    return buildLlm(llama(withContext("LLaMA2-7B", context_length), 256,
                          blocks(32, 4096, 32, context_length, 11008)));
}

ModelDesc
llama2_13b(long context_length)
{
    // LLaMA2-13B [Touvron et al.]: 40 layers, h = 5120, 40 heads (full
    // KV), SwiGLU ffn 13824.
    return buildLlm(llama(withContext("LLaMA2-13B", context_length), 256,
                          blocks(40, 5120, 40, context_length, 13824)));
}

ModelDesc
llmMoe()
{
    // Hypothetical 1.8T-parameter LLM-MoE (Table II): 16 experts
    // (2 active) replacing the FFN; ctx 8192; 550B FLOPs/token.
    // 512 x 8192 = 4M tokens per batch.
    LlmSpec s = llm("LLM-MoE", 512, 32000, 2,
                    blocks(51, 16384, 128, 8192, 4 * 16384));
    s.moe = LlmSpec::Moe{16, 2};
    return buildLlm(s);
}

std::string
toString(VitSize size)
{
    switch (size) {
      case VitSize::L: return "ViT-L";
      case VitSize::H: return "ViT-H";
      case VitSize::G: return "ViT-G";
      case VitSize::B22: return "ViT-22B";
      case VitSize::B120: return "ViT-120B";
    }
    panic("toString: unknown VitSize");
}

ModelDesc
vit(VitSize size, long global_batch)
{
    const long seq = 197;          // 14x14 patches + [CLS].
    TransformerSpec t;
    switch (size) {
      case VitSize::L: t = blocks(24, 1024, 16, seq, 4096); break;
      case VitSize::H: t = blocks(32, 1280, 16, seq, 5120); break;
      case VitSize::G: t = blocks(48, 1664, 16, seq, 8192); break;
      case VitSize::B22: t = blocks(48, 6144, 48, seq, 24576); break;
      case VitSize::B120: t = blocks(96, 10240, 80, seq, 40960); break;
    }

    ModelDesc m;
    m.name = toString(size);
    m.globalBatchSize = global_batch;
    m.contextLength = 1;           // One image per sample.
    m.isRecommendation = false;
    m.computeDtype = DataType::BF16;
    m.paramDtype = DataType::BF16;

    int patch = m.graph.addLayer(std::make_unique<MlpLayer>(
        "Patch_Proj", LayerClass::BaseDense,
        std::vector<long>{768, t.hidden}, static_cast<double>(t.seq)));
    int trunk = appendTransformer(m.graph, {patch}, t);
    m.graph.addLayer(std::make_unique<MlpLayer>(
        "Cls_Head", LayerClass::BaseDense,
        std::vector<long>{t.hidden, 1000}), {trunk});
    return m;
}

std::vector<ModelDesc>
tableIISuite()
{
    std::vector<ModelDesc> suite;
    suite.push_back(dlrmA());
    suite.push_back(dlrmATransformer());
    suite.push_back(dlrmAMoe());
    suite.push_back(dlrmB());
    suite.push_back(dlrmBTransformer());
    suite.push_back(dlrmBMoe());
    suite.push_back(gpt3());
    suite.push_back(llama65b());
    suite.push_back(llama2_70b());
    suite.push_back(llmMoe());
    return suite;
}

} // namespace madmax::model_zoo
