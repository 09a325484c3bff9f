#include <gtest/gtest.h>

#include "config/config_loader.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

TEST(ConfigLoader, ParseStrategyNotation)
{
    EXPECT_EQ(parseStrategy("(TP, DDP)"),
              (HierStrategy{Strategy::TP, Strategy::DDP}));
    EXPECT_EQ(parseStrategy("(FSDP)"), HierStrategy{Strategy::FSDP});
    EXPECT_EQ(parseStrategy("mp"), HierStrategy{Strategy::MP});
    EXPECT_EQ(parseStrategy("( ddp , tp )"),
              (HierStrategy{Strategy::DDP, Strategy::TP}));
    EXPECT_THROW(parseStrategy("(XYZ)"), ConfigError);
    EXPECT_THROW(parseStrategy(""), ConfigError);
}

TEST(ConfigLoader, ZooModelByName)
{
    JsonValue j = JsonValue::parse(R"json({"type":"zoo","name":"dlrm-a"})json");
    ModelDesc m = loadModel(j);
    EXPECT_EQ(m.name, "DLRM-A");
    EXPECT_EQ(m.globalBatchSize, 65536);

    JsonValue g = JsonValue::parse(R"json({"type":"zoo","name":"GPT-3"})json");
    EXPECT_EQ(loadModel(g).name, "GPT-3");

    JsonValue bad = JsonValue::parse(R"json({"type":"zoo","name":"nope"})json");
    EXPECT_THROW(loadModel(bad), ConfigError);
}

TEST(ConfigLoader, CustomDlrmFromJson)
{
    JsonValue j = JsonValue::parse(R"json({
        "type": "dlrm",
        "name": "my-dlrm",
        "global_batch": 8192,
        "embedding": {"tables": 100, "rows_per_table": 1000000,
                      "dim": 64, "pooling": 10},
        "bottom_mlp": [256, 512, 64],
        "top_mlp": [512, 1024, 1]
    })json");
    ModelDesc m = loadModel(j);
    EXPECT_EQ(m.name, "my-dlrm");
    EXPECT_TRUE(m.isRecommendation);
    EXPECT_EQ(m.graph.numLayers(), 4); // emb, bottom, interact, top.
    EXPECT_NEAR(m.graph.totals().paramCount, 100.0 * 1000000 * 64,
                1e6); // Embedding dominates.
    EXPECT_EQ(m.graph.layer(2).kind(), LayerKind::Interaction);
}

TEST(ConfigLoader, CustomDlrmWithTransformerAndMoe)
{
    JsonValue j = JsonValue::parse(R"json({
        "type": "dlrm",
        "global_batch": 8192,
        "embedding": {"tables": 10, "rows_per_table": 1000,
                      "dim": 64, "pooling": 2},
        "bottom_mlp": [64, 64],
        "transformer": {"layers": 2, "hidden": 128, "heads": 4,
                        "seq": 16, "ffn": 512},
        "moe": {"experts": 8, "active": 2, "ffn": 256},
        "top_mlp": [128, 1]
    })json");
    ModelDesc m = loadModel(j);
    EXPECT_TRUE(m.graph.hasClass(LayerClass::Transformer));
    EXPECT_TRUE(m.graph.hasClass(LayerClass::MoE));
    EXPECT_TRUE(m.graph.hasClass(LayerClass::SparseEmbedding));
}

TEST(ConfigLoader, CustomLlmFromJson)
{
    JsonValue j = JsonValue::parse(R"json({
        "type": "llm",
        "name": "tiny-llm",
        "global_batch": 64,
        "context": 1024,
        "vocab": 32000,
        "hidden": 1024,
        "layers": 4,
        "heads": 16,
        "ffn": 4096,
        "ffn_matrices": 3,
        "kv_heads": 4,
        "embedding_tie_factor": 2
    })json");
    ModelDesc m = loadModel(j);
    EXPECT_EQ(m.contextLength, 1024);
    EXPECT_FALSE(m.isRecommendation);
    // 1 embedding + 4 x (attn + ffn).
    EXPECT_EQ(m.graph.numLayers(), 9);
    EXPECT_EQ(m.computeDtype, DataType::BF16);
}

TEST(ConfigLoader, LlmMoeVariant)
{
    JsonValue j = JsonValue::parse(R"json({
        "type": "llm", "global_batch": 64, "context": 128,
        "vocab": 1000, "hidden": 256, "layers": 2, "heads": 4,
        "ffn": 1024, "moe": {"experts": 4, "active": 1}
    })json");
    ModelDesc m = loadModel(j);
    EXPECT_TRUE(m.graph.hasClass(LayerClass::MoE));
    // Attention stays dense; only the FFNs become experts.
    EXPECT_TRUE(m.graph.hasClass(LayerClass::Transformer));
}

namespace
{

/** Same ModelDesc fields and, layer by layer, the same name, shape
 *  and deps. */
void
expectSameModel(const ModelDesc &got, const ModelDesc &want)
{
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.globalBatchSize, want.globalBatchSize);
    EXPECT_EQ(got.contextLength, want.contextLength);
    EXPECT_EQ(got.computeDtype, want.computeDtype);
    EXPECT_EQ(got.paramDtype, want.paramDtype);
    EXPECT_EQ(got.isRecommendation, want.isRecommendation);
    ASSERT_EQ(got.graph.numLayers(), want.graph.numLayers()) << want.name;
    for (int i = 0; i < want.graph.numLayers(); ++i) {
        const Layer &g = got.graph.layer(i);
        const Layer &w = want.graph.layer(i);
        EXPECT_EQ(g.name(), w.name()) << want.name << " layer " << i;
        EXPECT_TRUE(g.sameShape(w)) << want.name << " " << w.name();
        EXPECT_EQ(got.graph.deps(i), want.graph.deps(i))
            << want.name << " " << w.name();
    }
}

} // namespace

TEST(ConfigLoader, JsonDocumentsMatchTheirZooTwins)
{
    // The custom dlrm/llm documents and the zoo wire graphs the same
    // way: a document with a zoo model's geometry loads to that model.
    expectSameModel(loadModelFile(std::string(MADMAX_CONFIG_DIR) +
                                  "/model_llama2_13b.json"),
                    model_zoo::llama2_13b(2048));

    expectSameModel(loadModel(JsonValue::parse(R"json({
        "type": "dlrm", "name": "DLRM-A-Transformer",
        "global_batch": 65536,
        "embedding": {"tables": 500, "rows_per_table": 12421400,
                      "dim": 128, "pooling": 51.52},
        "bottom_mlp": [256, 512, 256, 128],
        "transformer": {"layers": 4, "hidden": 512, "heads": 8,
                        "seq": 80, "ffn": 2816},
        "top_mlp": [512, 4096, 4096, 1]
    })json")),
                    model_zoo::dlrmATransformer());

    expectSameModel(loadModel(JsonValue::parse(R"json({
        "type": "llm", "name": "LLM-MoE", "global_batch": 512,
        "context": 8192, "vocab": 32000, "hidden": 16384,
        "layers": 51, "heads": 128, "ffn": 65536,
        "embedding_tie_factor": 2,
        "moe": {"experts": 16, "active": 2}
    })json")),
                    model_zoo::llmMoe());
}

TEST(ConfigLoader, UnknownModelTypeIsFatal)
{
    JsonValue j = JsonValue::parse(R"json({"type":"cnn"})json");
    EXPECT_THROW(loadModel(j), ConfigError);
}

TEST(ConfigLoader, ClusterFromJson)
{
    JsonValue j = JsonValue::parse(R"json({
        "name": "test-cluster",
        "device": {"name": "A100", "peak_tflops_16": 312,
                   "peak_tflops_tf32": 156, "hbm_gib": 40,
                   "hbm_gbps": 1600, "intra_node_gbps": 300,
                   "inter_node_gbps": 25},
        "devices_per_node": 8,
        "num_nodes": 16,
        "inter_fabric": "roce",
        "compute_utilization": 0.7
    })json");
    ClusterSpec c = loadCluster(j);
    EXPECT_EQ(c.numDevices(), 128);
    EXPECT_EQ(c.interFabric, FabricKind::RoCE);
    EXPECT_DOUBLE_EQ(c.device.peakFlopsTensor16, 312e12);
    EXPECT_DOUBLE_EQ(c.device.hbmBandwidth, 1600e9);
    EXPECT_DOUBLE_EQ(c.util.compute, 0.7);
    // Unspecified utilizations take defaults.
    EXPECT_DOUBLE_EQ(c.util.hbm, 0.80);
}

TEST(ConfigLoader, IntegerFieldsRejectFractionsAndOverflow)
{
    // Each field is read checked: a bare cast priced 2^32 + 16 nodes as
    // 16, and 2.5 as 2.
    auto cluster = [](const std::string &nodes) {
        return JsonValue::parse(R"json({
            "device": {"name": "A100", "peak_tflops_16": 312,
                       "hbm_gib": 40, "hbm_gbps": 1600,
                       "intra_node_gbps": 300, "inter_node_gbps": 25},
            "devices_per_node": 8, "num_nodes": )json" + nodes + "}");
    };
    EXPECT_EQ(loadCluster(cluster("16")).numNodes, 16);
    EXPECT_THROW(loadCluster(cluster("4294967312")), ConfigError);
    EXPECT_THROW(loadCluster(cluster("2.5")), ConfigError);
    EXPECT_THROW(loadCluster(cluster("1e300")), ConfigError);

    EXPECT_THROW(loadModel(JsonValue::parse(R"json({
        "type": "llm", "global_batch": 64, "context": 1024,
        "vocab": 32000, "hidden": 1024, "layers": 2.5, "heads": 16,
        "ffn": 4096})json")),
                 ConfigError);
    EXPECT_THROW(loadModel(JsonValue::parse(
                     R"json({"type": "zoo", "name": "llama2-7b",
                             "context": 512.5})json")),
                 ConfigError);
    EXPECT_THROW(loadTask(JsonValue::parse(
                     R"json({"task": "decode",
                             "decode_kv_tokens": 1e300})json")),
                 ConfigError);
    EXPECT_THROW(loadWorkload(JsonValue::parse(
                     R"json({"generate_tokens": 2.5})json")),
                 ConfigError);
}

TEST(ConfigLoader, ClusterRoundTripsThroughJson)
{
    ClusterSpec original = hw_zoo::dlrmTrainingSystem();
    JsonValue j = toJson(original);
    ClusterSpec back = loadCluster(j);
    EXPECT_EQ(back.name, original.name);
    EXPECT_EQ(back.numDevices(), original.numDevices());
    EXPECT_NEAR(back.device.peakFlopsTensor16,
                original.device.peakFlopsTensor16, 1e6);
    EXPECT_NEAR(back.device.hbmCapacity, original.device.hbmCapacity,
                1e6);
    EXPECT_EQ(back.interFabric, original.interFabric);
    EXPECT_DOUBLE_EQ(back.util.interLink, original.util.interLink);
}

TEST(ConfigLoader, ClusterTopologyExplicitLevels)
{
    JsonValue j = JsonValue::parse(R"json({
        "name": "topo-cluster",
        "device": {"name": "A100", "peak_tflops_16": 312,
                   "peak_tflops_tf32": 156, "hbm_gib": 40,
                   "hbm_gbps": 1600, "intra_node_gbps": 300,
                   "inter_node_gbps": 25},
        "devices_per_node": 8,
        "num_nodes": 16,
        "inter_fabric": "roce",
        "topology": {
            "name": "my-topo",
            "levels": [
                {"name": "node", "fan": 8},
                {"fan": 4, "bandwidth_gbps": 12.5, "latency_us": 5,
                 "rails": 2},
                {"name": "pod", "fan": 4, "sharers": 2.0}
            ]
        }
    })json");
    ClusterSpec c = loadCluster(j);
    ASSERT_NE(c.topology, nullptr);
    const TopologySpec &t = *c.topology;
    EXPECT_EQ(t.name, "my-topo");
    ASSERT_EQ(t.levels.size(), 3u);
    // Omitted bandwidth inherits the flat effective rate of the
    // matching scope; omitted names get positional defaults.
    EXPECT_EQ(t.levels[0].name, "node");
    EXPECT_NEAR(t.levels[0].linkBandwidth, c.effIntraBandwidth(), 1.0);
    EXPECT_LT(t.levels[0].linkLatency, 0.0); // Inherits alpha default.
    EXPECT_EQ(t.levels[1].name, "tier1");
    EXPECT_DOUBLE_EQ(t.levels[1].linkBandwidth, 12.5e9);
    EXPECT_DOUBLE_EQ(t.levels[1].linkLatency, 5e-6);
    EXPECT_EQ(t.levels[1].rails, 2);
    EXPECT_NEAR(t.levels[2].linkBandwidth, c.effInterBandwidth(), 1.0);
    EXPECT_DOUBLE_EQ(t.levels[2].sharers, 2.0);
    EXPECT_EQ(t.totalDevices(), c.numDevices());
}

TEST(ConfigLoader, ClusterTopologyPresets)
{
    JsonValue j = JsonValue::parse(R"json({
        "name": "preset-cluster",
        "device": {"name": "A100", "peak_tflops_16": 312,
                   "peak_tflops_tf32": 156, "hbm_gib": 40,
                   "hbm_gbps": 1600, "intra_node_gbps": 300,
                   "inter_node_gbps": 25},
        "devices_per_node": 8,
        "num_nodes": 16,
        "topology": {"preset": "dc-rail", "rail_nodes": 4}
    })json");
    ClusterSpec c = loadCluster(j);
    ASSERT_NE(c.topology, nullptr);
    EXPECT_EQ(c.topology->name, "dc-rail");
    ASSERT_EQ(c.topology->levels.size(), 3u);
    EXPECT_EQ(c.topology->levels[0].fan, 8);
    EXPECT_EQ(c.topology->levels[1].fan, 4);
    EXPECT_EQ(c.topology->levels[2].fan, 4);

    JsonValue bad = JsonValue::parse(R"json({
        "name": "preset-cluster",
        "device": {"name": "A100", "peak_tflops_16": 312,
                   "peak_tflops_tf32": 156, "hbm_gib": 40,
                   "hbm_gbps": 1600, "intra_node_gbps": 300,
                   "inter_node_gbps": 25},
        "devices_per_node": 8,
        "num_nodes": 16,
        "topology": {"preset": "torus"}
    })json");
    EXPECT_THROW(loadCluster(bad), ConfigError);
}

TEST(ConfigLoader, ClusterTopologyRoundTripsThroughJson)
{
    ClusterSpec original = hw_zoo::withTopology(
        hw_zoo::dlrmTrainingSystem(),
        hw_zoo::dcPodFleetTopology(hw_zoo::dlrmTrainingSystem()));
    ClusterSpec back = loadCluster(toJson(original));
    ASSERT_NE(back.topology, nullptr);
    const TopologySpec &a = *original.topology;
    const TopologySpec &b = *back.topology;
    EXPECT_EQ(b.name, a.name);
    ASSERT_EQ(b.levels.size(), a.levels.size());
    for (size_t i = 0; i < a.levels.size(); ++i) {
        EXPECT_EQ(b.levels[i].name, a.levels[i].name);
        EXPECT_EQ(b.levels[i].fan, a.levels[i].fan);
        EXPECT_EQ(b.levels[i].rails, a.levels[i].rails);
        EXPECT_DOUBLE_EQ(b.levels[i].sharers, a.levels[i].sharers);
        EXPECT_NEAR(b.levels[i].linkBandwidth,
                    a.levels[i].linkBandwidth,
                    a.levels[i].linkBandwidth * 1e-12 + 1.0);
    }
}

TEST(ConfigLoader, ClusterTopologyShapeMismatchIsFatal)
{
    // Scale-out fan product 3 x 4 != 16 nodes: loadCluster's final
    // validate() must reject the stack.
    JsonValue j = JsonValue::parse(R"json({
        "name": "bad-topo",
        "device": {"name": "A100", "peak_tflops_16": 312,
                   "peak_tflops_tf32": 156, "hbm_gib": 40,
                   "hbm_gbps": 1600, "intra_node_gbps": 300,
                   "inter_node_gbps": 25},
        "devices_per_node": 8,
        "num_nodes": 16,
        "topology": {"levels": [{"fan": 8}, {"fan": 3}, {"fan": 4}]}
    })json");
    EXPECT_THROW(loadCluster(j), ConfigError);
}

TEST(ConfigLoader, ShippedTopologyConfigLoads)
{
    ClusterSpec c = loadClusterFile(std::string(MADMAX_CONFIG_DIR) +
                                    "/system_zionex_topo.json");
    EXPECT_EQ(c.numDevices(), 128);
    ASSERT_NE(c.topology, nullptr);
    EXPECT_EQ(c.topology->name, "zionex-rail");
    ASSERT_EQ(c.topology->levels.size(), 3u);
    EXPECT_EQ(c.topology->levels[1].rails, 2);
    EXPECT_DOUBLE_EQ(c.topology->levels[2].sharers, 2.0);
}

TEST(ConfigLoader, TaskFromJson)
{
    JsonValue j = JsonValue::parse(R"json({
        "task": "pre-training",
        "strategies": {
            "embedding": "(MP)",
            "base_dense": "(TP, DDP)",
            "transformer": "(FSDP)"
        },
        "fsdp_prefetch": true
    })json");
    TaskConfig cfg = loadTask(j);
    EXPECT_EQ(cfg.task.kind, TaskKind::PreTraining);
    EXPECT_EQ(cfg.plan.strategyFor(LayerClass::BaseDense),
              (HierStrategy{Strategy::TP, Strategy::DDP}));
    EXPECT_EQ(cfg.plan.strategyFor(LayerClass::SparseEmbedding),
              HierStrategy{Strategy::MP});
    EXPECT_TRUE(cfg.plan.fsdpPrefetch);
}

TEST(ConfigLoader, TaskDefaultsToFsdpBaseline)
{
    JsonValue j = JsonValue::parse(R"json({"task": "inference"})json");
    TaskConfig cfg = loadTask(j);
    EXPECT_EQ(cfg.task.kind, TaskKind::Inference);
    EXPECT_EQ(cfg.plan.strategyFor(LayerClass::Transformer),
              HierStrategy{Strategy::FSDP});
}

TEST(ConfigLoader, FineTuneScopes)
{
    JsonValue dense = JsonValue::parse(
        R"json({"task": "fine-tuning", "finetune_scope": "dense"})json");
    EXPECT_EQ(loadTask(dense).task.ftScope, FineTuneScope::DenseOnly);
    JsonValue emb = JsonValue::parse(
        R"json({"task": "fine-tuning", "finetune_scope": "embedding"})json");
    EXPECT_EQ(loadTask(emb).task.ftScope, FineTuneScope::EmbeddingOnly);
    JsonValue bad = JsonValue::parse(R"json({"task": "dreaming"})json");
    EXPECT_THROW(loadTask(bad), ConfigError);
}

TEST(ConfigLoader, TaskRoundTrip)
{
    TaskConfig cfg;
    cfg.task = TaskSpec::fineTuning(FineTuneScope::EmbeddingOnly);
    cfg.plan.set(LayerClass::BaseDense,
                 HierStrategy{Strategy::DDP, Strategy::FSDP});
    cfg.plan.fsdpPrefetch = true;
    TaskConfig back = loadTask(toJson(cfg));
    EXPECT_EQ(back.task.kind, TaskKind::FineTuning);
    EXPECT_EQ(back.task.ftScope, FineTuneScope::EmbeddingOnly);
    EXPECT_EQ(back.plan.strategyFor(LayerClass::BaseDense),
              (HierStrategy{Strategy::DDP, Strategy::FSDP}));
    EXPECT_TRUE(back.plan.fsdpPrefetch);
}

TEST(ConfigLoader, HeterogeneousClusterFromJson)
{
    JsonValue j = JsonValue::parse(R"json({
        "name": "mixed",
        "inter_fabric": "infiniband",
        "device_groups": [
            {"name": "fast",
             "device": {"name": "H100", "peak_tflops_16": 756,
                        "peak_tflops_tf32": 378, "peak_tflops_fp32": 67,
                        "hbm_gib": 80, "hbm_gbps": 2000,
                        "intra_node_gbps": 450, "inter_node_gbps": 400},
             "devices_per_node": 8, "num_nodes": 2},
            {"name": "big",
             "device": {"name": "A100-80GB", "peak_tflops_16": 312,
                        "peak_tflops_tf32": 156, "peak_tflops_fp32": 19.5,
                        "hbm_gib": 80, "hbm_gbps": 2000,
                        "intra_node_gbps": 300, "inter_node_gbps": 200},
             "devices_per_node": 8, "num_nodes": 4}
        ]
    })json");
    ClusterSpec c = loadCluster(j);
    EXPECT_TRUE(c.isHeterogeneous());
    ASSERT_EQ(c.groups.size(), 2u);
    EXPECT_EQ(c.groups[0].name, "fast");
    EXPECT_EQ(c.groups[1].device.name, "A100-80GB");
    EXPECT_EQ(c.totalDevices(), 16 + 32);
    EXPECT_EQ(c.interFabric, FabricKind::InfiniBand);
    c.validate();
}

TEST(ConfigLoader, HeterogeneousClusterRoundTripsThroughJson)
{
    ClusterSpec original = hw_zoo::mixedInferenceFleet();
    JsonValue j = toJson(original);
    // Heterogeneous clusters serialize their groups, not flat fields.
    EXPECT_TRUE(j.has("device_groups"));
    EXPECT_FALSE(j.has("device"));
    ClusterSpec back = loadCluster(j);
    ASSERT_EQ(back.groups.size(), original.groups.size());
    for (size_t i = 0; i < back.groups.size(); ++i) {
        EXPECT_EQ(back.groups[i].name, original.groups[i].name);
        EXPECT_EQ(back.groups[i].numNodes, original.groups[i].numNodes);
        EXPECT_NEAR(back.groups[i].device.peakFlopsTensor16,
                    original.groups[i].device.peakFlopsTensor16, 1e6);
    }
    EXPECT_EQ(back.totalDevices(), original.totalDevices());
}

TEST(ConfigLoader, ServingPhaseTasksParseAndRoundTrip)
{
    // Kind shorthand.
    TaskConfig prefill = loadTask(
        JsonValue::parse(R"json({"task": "prefill"})json"));
    EXPECT_EQ(prefill.task.phase, InferencePhase::Prefill);
    EXPECT_TRUE(prefill.task.usesKvCache());

    // Explicit phase key with the KV knobs.
    TaskConfig decode = loadTask(JsonValue::parse(R"json({
        "task": "inference", "phase": "decode",
        "decode_kv_tokens": 4096, "kv_capacity_tokens": 4352,
        "kv_bytes_per_element": 1
    })json"));
    EXPECT_EQ(decode.task.phase, InferencePhase::Decode);
    EXPECT_EQ(decode.task.decodeKvLength, 4096);
    EXPECT_EQ(decode.task.kvCapacityTokens, 4352);
    EXPECT_DOUBLE_EQ(decode.task.kvBytesPerElement, 1.0);

    TaskConfig back = loadTask(toJson(decode));
    EXPECT_EQ(back.task.toString(), decode.task.toString());

    // The classic batch task keeps the legacy JSON shape.
    TaskConfig batch = loadTask(
        JsonValue::parse(R"json({"task": "inference"})json"));
    EXPECT_FALSE(toJson(batch).has("phase"));

    EXPECT_THROW(loadTask(JsonValue::parse(
                     R"json({"task": "inference", "phase": "warmup"})json")),
                 ConfigError);
}

TEST(ConfigLoader, ServingTaskKvKnobErrorsAreActionable)
{
    try {
        loadTask(JsonValue::parse(R"json({
            "task": "decode", "kv_capacity_tokens": -1
        })json"));
        FAIL() << "negative kv_capacity_tokens must be fatal";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("kv_capacity_tokens"),
                  std::string::npos);
    }
    try {
        loadTask(JsonValue::parse(R"json({
            "task": "prefill", "kv_bytes_per_element": 0
        })json"));
        FAIL() << "zero kv_bytes_per_element must be fatal";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("fp8"), std::string::npos);
    }
}

TEST(ConfigLoader, LlmContextMustBePositive)
{
    JsonValue j = JsonValue::parse(R"json({
        "type": "llm", "name": "bad", "global_batch": 8,
        "context": 0, "vocab": 1000, "hidden": 64, "layers": 1,
        "heads": 4, "ffn": 256
    })json");
    try {
        loadModel(j);
        FAIL() << "context 0 must be fatal";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("context"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("Llama-2"),
                  std::string::npos);
    }
}

TEST(ConfigLoader, Llama2ZooNamesTakeAContext)
{
    JsonValue j = JsonValue::parse(
        R"json({"type": "zoo", "name": "llama2-13b", "context": 2048})json");
    ModelDesc m = loadModel(j);
    EXPECT_EQ(m.name, "LLaMA2-13B-ctx2048");
    EXPECT_EQ(m.contextLength, 2048);
    JsonValue d = JsonValue::parse(
        R"json({"type": "zoo", "name": "llama2-7b"})json");
    EXPECT_EQ(loadModel(d).contextLength, 4096);
}

TEST(ConfigLoader, WorkloadParsesAndValidates)
{
    InferenceWorkload w = loadWorkload(JsonValue::parse(R"json({
        "prompt_tokens": 512, "generate_tokens": 128,
        "kv_bytes_per_element": 1,
        "prefill_group": "fast", "decode_group": "big"
    })json"));
    EXPECT_EQ(w.promptTokens, 512);
    EXPECT_EQ(w.generateTokens, 128);
    EXPECT_DOUBLE_EQ(w.kvBytesPerElement, 1.0);
    EXPECT_EQ(w.prefillGroup, "fast");
    EXPECT_EQ(w.decodeGroup, "big");

    // Defaults: prompt from the model, 256 generated, fp16 cache.
    InferenceWorkload d = loadWorkload(JsonValue::parse("{}"));
    EXPECT_EQ(d.promptTokens, 0);
    EXPECT_EQ(d.generateTokens, 256);

    InferenceWorkload back = loadWorkload(toJson(w));
    EXPECT_EQ(back.promptTokens, w.promptTokens);
    EXPECT_EQ(back.decodeGroup, w.decodeGroup);

    EXPECT_THROW(loadWorkload(JsonValue::parse(
                     R"json({"prompt_tokens": -5})json")),
                 ConfigError);
    EXPECT_THROW(loadWorkload(JsonValue::parse(
                     R"json({"generate_tokens": 0})json")),
                 ConfigError);
    try {
        loadWorkload(JsonValue::parse(
            R"json({"kv_bytes_per_element": -2})json"));
        FAIL() << "negative KV bytes must be fatal";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("kv_bytes_per_element"),
                  std::string::npos);
    }
}

TEST(ConfigLoader, ShippedServingConfigsLoad)
{
    ModelDesc m = loadModelFile(std::string(MADMAX_CONFIG_DIR) +
                                "/model_llama2_13b.json");
    EXPECT_EQ(m.name, "LLaMA2-13B-ctx2048");
    ClusterSpec c = loadClusterFile(std::string(MADMAX_CONFIG_DIR) +
                                    "/system_mixed_inference.json");
    EXPECT_TRUE(c.isHeterogeneous());
    EXPECT_EQ(c.totalDevices(),
              hw_zoo::mixedInferenceFleet().totalDevices());
    InferenceWorkload w = loadWorkloadFile(
        std::string(MADMAX_CONFIG_DIR) + "/workload_serving.json");
    EXPECT_EQ(w.generateTokens, 256);
}

TEST(ConfigLoader, ShippedConfigsLoad)
{
    // The configs/ directory ships working examples; paths are
    // relative to the repository root (ctest runs from build/).
    ModelDesc m = loadModelFile(std::string(MADMAX_CONFIG_DIR) +
                                "/model_dlrm_a.json");
    EXPECT_EQ(m.name, "DLRM-A");
    ClusterSpec c = loadClusterFile(std::string(MADMAX_CONFIG_DIR) +
                                    "/system_zionex.json");
    EXPECT_EQ(c.numDevices(), 128);
    TaskConfig t = loadTaskFile(std::string(MADMAX_CONFIG_DIR) +
                                "/task_pretrain_optimal.json");
    EXPECT_EQ(t.task.kind, TaskKind::PreTraining);
}

} // namespace madmax
