#include "config/config_loader.hh"

#include <algorithm>
#include <memory>

#include "hw/hw_zoo.hh"
#include "hw/topology.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"
#include "util/strfmt.hh"
#include "util/units.hh"

namespace madmax
{

namespace
{

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

Strategy
parseOneStrategy(const std::string &raw)
{
    std::string s = lower(raw);
    if (s == "ddp")
        return Strategy::DDP;
    if (s == "fsdp")
        return Strategy::FSDP;
    if (s == "tp")
        return Strategy::TP;
    if (s == "mp" || s == "shard" || s == "sharding")
        return Strategy::MP;
    fatal("unknown strategy name: " + raw);
}

std::vector<long>
parseDims(const JsonValue &json)
{
    std::vector<long> dims;
    for (const JsonValue &v : json.asArray())
        dims.push_back(v.asLong());
    return dims;
}

DataType
parseDtype(const std::string &raw)
{
    std::string s = lower(raw);
    if (s == "fp32")
        return DataType::FP32;
    if (s == "tf32")
        return DataType::TF32;
    if (s == "fp16")
        return DataType::FP16;
    if (s == "bf16")
        return DataType::BF16;
    fatal("unknown dtype: " + raw);
}

FabricKind
parseFabric(const std::string &raw, const char *field)
{
    std::string s = lower(raw);
    if (s == "roce")
        return FabricKind::RoCE;
    if (s == "infiniband" || s == "ib")
        return FabricKind::InfiniBand;
    if (s == "ethernet" || s == "efa")
        return FabricKind::Ethernet;
    if (s == "nvlink")
        return FabricKind::NVLink;
    if (s == "xgmi")
        return FabricKind::XGMI;
    if (s == "pcie")
        return FabricKind::PCIe;
    fatal(strfmt("unknown %s: %s", field, raw.c_str()));
}

std::string
fabricName(FabricKind kind)
{
    switch (kind) {
      case FabricKind::RoCE: return "roce";
      case FabricKind::InfiniBand: return "infiniband";
      case FabricKind::Ethernet: return "ethernet";
      case FabricKind::NVLink: return "nvlink";
      case FabricKind::XGMI: return "xgmi";
      case FabricKind::PCIe: return "pcie";
    }
    return "infiniband";
}

DeviceSpec
loadDevice(const JsonValue &dev)
{
    using namespace units;
    DeviceSpec d;
    d.name = dev.stringOr("name", "custom-device");
    d.peakFlopsTensor16 = tflops(dev.at("peak_tflops_16").asDouble());
    d.peakFlopsTf32 =
        tflops(dev.numberOr("peak_tflops_tf32",
                            dev.at("peak_tflops_16").asDouble() / 2.0));
    d.peakFlopsFp32 = tflops(dev.numberOr("peak_tflops_fp32", 0.0));
    d.hbmCapacity = gib(dev.at("hbm_gib").asDouble());
    d.hbmBandwidth = gBps(dev.at("hbm_gbps").asDouble());
    d.intraNodeBandwidth = gBps(dev.at("intra_node_gbps").asDouble());
    d.interNodeBandwidth = gBps(dev.at("inter_node_gbps").asDouble());
    return d;
}

ModelDesc
loadZooModel(const JsonValue &json)
{
    std::string name = lower(json.at("name").asString());
    if (name == "dlrm-a")
        return model_zoo::dlrmA();
    if (name == "dlrm-a-transformer")
        return model_zoo::dlrmATransformer();
    if (name == "dlrm-a-moe")
        return model_zoo::dlrmAMoe();
    if (name == "dlrm-b")
        return model_zoo::dlrmB();
    if (name == "dlrm-b-transformer")
        return model_zoo::dlrmBTransformer();
    if (name == "dlrm-b-moe")
        return model_zoo::dlrmBMoe();
    if (name == "gpt-3" || name == "gpt3")
        return model_zoo::gpt3();
    if (name == "llama-65b")
        return model_zoo::llama65b();
    if (name == "llama2-70b")
        return model_zoo::llama2_70b();
    // The serving-class models take an optional prompt/context length
    // (the default matches the published 4096-token context).
    if (name == "llama2-7b") {
        return model_zoo::llama2_7b(
            static_cast<long>(json.numberOr("context", 4096)));
    }
    if (name == "llama2-13b") {
        return model_zoo::llama2_13b(
            static_cast<long>(json.numberOr("context", 4096)));
    }
    if (name == "llm-moe")
        return model_zoo::llmMoe();
    fatal("unknown zoo model: " + json.at("name").asString());
}

ModelDesc
loadDlrmModel(const JsonValue &json)
{
    model_zoo::DlrmSpec s;
    s.name = json.stringOr("name", "custom-dlrm");
    s.globalBatch = json.at("global_batch").asLong();
    s.computeDtype = parseDtype(json.stringOr("compute_dtype", "tf32"));
    s.paramDtype = parseDtype(json.stringOr("param_dtype", "fp32"));

    const JsonValue &emb = json.at("embedding");
    s.tables = emb.at("tables").asLong();
    s.rowsPerTable = emb.at("rows_per_table").asLong();
    s.embeddingDim = emb.at("dim").asLong();
    s.pooling = emb.at("pooling").asDouble();
    s.bottomMlp = parseDims(json.at("bottom_mlp"));

    if (json.has("transformer")) {
        const JsonValue &tr = json.at("transformer");
        model_zoo::TransformerSpec t;
        t.hidden = tr.at("hidden").asLong();
        t.layers = tr.at("layers").asLong();
        t.heads = tr.at("heads").asLong();
        t.seq = tr.at("seq").asLong();
        t.ffn = tr.at("ffn").asLong();
        s.transformer = t;
    }
    if (json.has("moe")) {
        const JsonValue &moe = json.at("moe");
        model_zoo::DlrmSpec::MoeTop top;
        if (moe.has("hidden"))
            top.hidden = static_cast<long>(moe.at("hidden").asDouble());
        top.ffn = moe.at("ffn").asLong();
        top.experts = static_cast<int>(moe.at("experts").asLong());
        top.active = static_cast<int>(moe.at("active").asLong());
        s.moe = top;
    }
    if (json.has("top_mlp"))
        s.topMlp = parseDims(json.at("top_mlp"));
    return model_zoo::buildDlrm(s);
}

ModelDesc
loadLlmModel(const JsonValue &json)
{
    model_zoo::LlmSpec s;
    s.name = json.stringOr("name", "custom-llm");
    s.globalBatch = json.at("global_batch").asLong();
    model_zoo::TransformerSpec &t = s.blocks;
    t.seq = json.at("context").asLong();
    if (t.seq < 1) {
        fatal(strfmt("llm model \"%s\": context %ld must be >= 1 — "
                     "the context length sets the attention geometry "
                     "and the serving prompt length (e.g. 4096 for a "
                     "Llama-2-class model)",
                     s.name.c_str(), t.seq));
    }
    s.computeDtype = parseDtype(json.stringOr("compute_dtype", "bf16"));
    s.paramDtype = parseDtype(json.stringOr("param_dtype", "bf16"));

    t.hidden = json.at("hidden").asLong();
    s.vocab = json.at("vocab").asLong();
    s.tieFactor =
        static_cast<int>(json.numberOr("embedding_tie_factor", 1));
    t.layers = json.at("layers").asLong();
    t.heads = json.at("heads").asLong();
    t.kvHeads = static_cast<long>(json.numberOr("kv_heads", 0));
    t.ffn = json.at("ffn").asLong();
    t.ffnMatrices = static_cast<int>(json.numberOr("ffn_matrices", 2));
    if (json.has("moe")) {
        const JsonValue &moe = json.at("moe");
        s.moe = model_zoo::LlmSpec::Moe{
            static_cast<int>(moe.at("experts").asLong()),
            static_cast<int>(moe.at("active").asLong())};
    }
    return model_zoo::buildLlm(s);
}

} // namespace

ModelDesc
loadModel(const JsonValue &json)
{
    std::string type = lower(json.at("type").asString());
    if (type == "zoo")
        return loadZooModel(json);
    if (type == "dlrm")
        return loadDlrmModel(json);
    if (type == "llm")
        return loadLlmModel(json);
    fatal("unknown model type: " + json.at("type").asString());
}

ClusterSpec
loadCluster(const JsonValue &json)
{
    using namespace units;
    ClusterSpec c;
    c.name = json.stringOr("name", "custom-cluster");

    // Mixed-generation clusters describe their pools under
    // "device_groups" and have no flat device fields of their own.
    const bool heterogeneous = json.has("device_groups");
    if (!heterogeneous) {
        c.device = loadDevice(json.at("device"));
        c.devicesPerNode =
            static_cast<int>(json.at("devices_per_node").asLong());
        c.numNodes = static_cast<int>(json.at("num_nodes").asLong());
    } else {
        for (const JsonValue &g : json.at("device_groups").asArray()) {
            DeviceGroup group;
            group.name = g.at("name").asString();
            group.device = loadDevice(g.at("device"));
            group.devicesPerNode =
                static_cast<int>(g.at("devices_per_node").asLong());
            group.numNodes = static_cast<int>(g.at("num_nodes").asLong());
            group.intraFabric = parseFabric(
                g.stringOr("intra_fabric", "nvlink"), "intra_fabric");
            c.groups.push_back(std::move(group));
        }
    }

    c.util.compute = json.numberOr("compute_utilization", 0.70);
    c.util.hbm = json.numberOr("hbm_utilization", 0.80);
    c.util.intraLink = json.numberOr("intra_link_utilization", 0.80);
    c.util.interLink = json.numberOr("inter_link_utilization", 0.65);

    c.interFabric = parseFabric(
        json.stringOr("inter_fabric", "infiniband"), "inter_fabric");

    // Optional hierarchical topology: either a named preset derived
    // from the flat bandwidths above, or an explicit tier stack (see
    // docs/configs.md for the schema).
    if (json.has("topology")) {
        const JsonValue &topo = json.at("topology");
        TopologySpec spec;
        if (topo.has("preset")) {
            std::string preset = lower(topo.at("preset").asString());
            const int rail_nodes = static_cast<int>(
                topo.has("rail_nodes") ? topo.at("rail_nodes").asLong()
                                       : 4);
            if (preset == "flat")
                spec = hw_zoo::flatTopologyPreset(c);
            else if (preset == "dc-rail")
                spec = hw_zoo::dcRailTopology(c, rail_nodes);
            else if (preset == "dc-pod-fleet")
                spec = hw_zoo::dcPodFleetTopology(c, rail_nodes);
            else
                fatal("unknown topology preset: " + preset);
        } else {
            spec.name = topo.stringOr("name", "topology");
            size_t i = 0;
            for (const JsonValue &lv : topo.at("levels").asArray()) {
                TopologyLevel level;
                level.name =
                    lv.stringOr("name", strfmt("tier%zu", i));
                level.fan = static_cast<int>(lv.at("fan").asLong());
                // Bandwidth defaults to the flat effective rate of
                // the matching scope so partial descriptions stay
                // consistent with the device datasheet.
                level.linkBandwidth = gBps(lv.numberOr(
                    "bandwidth_gbps",
                    (i == 0 ? c.effIntraBandwidth()
                            : c.effInterBandwidth()) /
                        1e9));
                if (lv.has("latency_us"))
                    level.linkLatency =
                        lv.at("latency_us").asDouble() * 1e-6;
                level.rails = static_cast<int>(
                    lv.has("rails") ? lv.at("rails").asLong() : 1);
                level.sharers = lv.numberOr("sharers", 1.0);
                spec.levels.push_back(std::move(level));
                ++i;
            }
        }
        c.topology =
            std::make_shared<const TopologySpec>(std::move(spec));
    }

    c.validate();
    return c;
}

HierStrategy
parseStrategy(const std::string &text)
{
    // Strip parentheses and whitespace, split on comma.
    std::string s;
    for (char c : text) {
        if (c != '(' && c != ')' && c != ' ')
            s += c;
    }
    if (s.empty())
        fatal("empty strategy string");
    size_t comma = s.find(',');
    if (comma == std::string::npos)
        return HierStrategy{parseOneStrategy(s)};
    return HierStrategy{parseOneStrategy(s.substr(0, comma)),
                        parseOneStrategy(s.substr(comma + 1))};
}

TaskConfig
loadTask(const JsonValue &json)
{
    TaskConfig cfg;
    std::string kind = lower(json.at("task").asString());
    if (kind == "pre-training" || kind == "pretraining" ||
        kind == "training") {
        cfg.task = TaskSpec::preTraining();
    } else if (kind == "inference" || kind == "prefill" ||
               kind == "decode") {
        // The serving phases parse either as a task shorthand
        // ("task": "prefill") or as "task": "inference" plus an
        // explicit "phase" key; "batch" is the classic whole-context
        // inference pass and stays the default.
        std::string phase =
            kind == "inference" ? lower(json.stringOr("phase", "batch"))
                                : kind;
        if (phase == "batch") {
            cfg.task = TaskSpec::inference();
        } else if (phase == "prefill") {
            cfg.task = TaskSpec::prefill();
        } else if (phase == "decode") {
            cfg.task = TaskSpec::decode(static_cast<long>(
                json.numberOr("decode_kv_tokens", 0)));
        } else {
            fatal("unknown inference phase: " + phase +
                  " (expected batch, prefill, or decode)");
        }
        if (cfg.task.usesKvCache()) {
            cfg.task.kvCapacityTokens = static_cast<long>(
                json.numberOr("kv_capacity_tokens", 0));
            cfg.task.kvBytesPerElement =
                json.numberOr("kv_bytes_per_element", 2.0);
            if (cfg.task.kvCapacityTokens < 0) {
                fatal(strfmt("task kv_capacity_tokens %ld is negative; "
                             "give the KV budget in tokens (prompt + "
                             "generated), or 0 for the model's context "
                             "length",
                             cfg.task.kvCapacityTokens));
            }
            if (cfg.task.kvBytesPerElement <= 0.0) {
                fatal(strfmt("task kv_bytes_per_element %.3g must be "
                             "positive (2 = fp16/bf16 cache, 1 = fp8)",
                             cfg.task.kvBytesPerElement));
            }
        }
    } else if (kind == "fine-tuning" || kind == "finetuning") {
        std::string scope = lower(json.stringOr("finetune_scope", "dense"));
        cfg.task = TaskSpec::fineTuning(
            scope == "embedding" ? FineTuneScope::EmbeddingOnly
                                 : FineTuneScope::DenseOnly);
    } else {
        fatal("unknown task: " + kind);
    }

    if (json.has("strategies")) {
        for (const auto &[key, value] : json.at("strategies").asObject()) {
            std::string k = lower(key);
            LayerClass cls;
            if (k == "sparse_embedding" || k == "embedding")
                cls = LayerClass::SparseEmbedding;
            else if (k == "dense_embedding")
                cls = LayerClass::DenseEmbedding;
            else if (k == "base_dense" || k == "dense")
                cls = LayerClass::BaseDense;
            else if (k == "transformer")
                cls = LayerClass::Transformer;
            else if (k == "moe")
                cls = LayerClass::MoE;
            else
                fatal("unknown layer class in strategies: " + key);
            cfg.plan.set(cls, parseStrategy(value.asString()));
        }
    } else {
        cfg.plan = ParallelPlan::fsdpBaseline();
    }
    cfg.plan.fsdpPrefetch = json.boolOr("fsdp_prefetch", false);
    return cfg;
}

InferenceWorkload
loadWorkload(const JsonValue &json)
{
    InferenceWorkload w;
    w.promptTokens =
        static_cast<long>(json.numberOr("prompt_tokens", 0));
    w.generateTokens =
        static_cast<long>(json.numberOr("generate_tokens", 256));
    w.kvBytesPerElement = json.numberOr("kv_bytes_per_element", 2.0);
    w.prefillGroup = json.stringOr("prefill_group", "");
    w.decodeGroup = json.stringOr("decode_group", "");
    if (w.promptTokens < 0) {
        fatal(strfmt("workload prompt_tokens %ld is negative; use 0 "
                     "to take the model's context length",
                     w.promptTokens));
    }
    if (w.generateTokens < 1) {
        fatal(strfmt("workload generate_tokens %ld must be >= 1 (a "
                     "serving request decodes at least one token)",
                     w.generateTokens));
    }
    if (w.kvBytesPerElement <= 0.0) {
        fatal(strfmt("workload kv_bytes_per_element %.3g must be "
                     "positive (2 = fp16/bf16 cache, 1 = fp8)",
                     w.kvBytesPerElement));
    }
    return w;
}

ModelDesc
loadModelFile(const std::string &path)
{
    return loadModel(JsonValue::parseFile(path));
}

ClusterSpec
loadClusterFile(const std::string &path)
{
    return loadCluster(JsonValue::parseFile(path));
}

TaskConfig
loadTaskFile(const std::string &path)
{
    return loadTask(JsonValue::parseFile(path));
}

InferenceWorkload
loadWorkloadFile(const std::string &path)
{
    return loadWorkload(JsonValue::parseFile(path));
}

namespace
{

JsonValue
deviceJson(const DeviceSpec &device)
{
    using namespace units;
    JsonValue dev;
    dev.set("name", device.name);
    dev.set("peak_tflops_16", device.peakFlopsTensor16 / 1e12);
    dev.set("peak_tflops_tf32", device.peakFlopsTf32 / 1e12);
    dev.set("peak_tflops_fp32", device.peakFlopsFp32 / 1e12);
    dev.set("hbm_gib", device.hbmCapacity / GiB);
    dev.set("hbm_gbps", device.hbmBandwidth / 1e9);
    dev.set("intra_node_gbps", device.intraNodeBandwidth / 1e9);
    dev.set("inter_node_gbps", device.interNodeBandwidth / 1e9);
    return dev;
}

} // namespace

JsonValue
toJson(const ClusterSpec &cluster)
{
    JsonValue out;
    out.set("name", cluster.name);
    if (cluster.isHeterogeneous()) {
        JsonValue groups{JsonValue::Array{}};
        for (const DeviceGroup &g : cluster.groups) {
            JsonValue entry;
            entry.set("name", g.name);
            entry.set("device", deviceJson(g.device));
            entry.set("devices_per_node",
                      static_cast<long>(g.devicesPerNode));
            entry.set("num_nodes", static_cast<long>(g.numNodes));
            entry.set("intra_fabric", fabricName(g.intraFabric));
            groups.append(std::move(entry));
        }
        out.set("device_groups", std::move(groups));
    } else {
        out.set("device", deviceJson(cluster.device));
        out.set("devices_per_node",
                static_cast<long>(cluster.devicesPerNode));
        out.set("num_nodes", static_cast<long>(cluster.numNodes));
    }
    out.set("compute_utilization", cluster.util.compute);
    out.set("hbm_utilization", cluster.util.hbm);
    out.set("intra_link_utilization", cluster.util.intraLink);
    out.set("inter_link_utilization", cluster.util.interLink);
    out.set("inter_fabric", fabricName(cluster.interFabric));
    if (cluster.topology) {
        // Emit the resolved tier stack (not the preset name that may
        // have produced it) so a round-trip re-parses to the same
        // levels regardless of how they were specified.
        JsonValue topo;
        topo.set("name", cluster.topology->name);
        JsonValue levels{JsonValue::Array{}};
        for (const TopologyLevel &lv : cluster.topology->levels) {
            JsonValue level;
            level.set("name", lv.name);
            level.set("fan", static_cast<long>(lv.fan));
            level.set("bandwidth_gbps", lv.linkBandwidth / 1e9);
            if (lv.linkLatency >= 0.0)
                level.set("latency_us", lv.linkLatency * 1e6);
            level.set("rails", static_cast<long>(lv.rails));
            level.set("sharers", lv.sharers);
            levels.append(std::move(level));
        }
        topo.set("levels", std::move(levels));
        out.set("topology", std::move(topo));
    }
    return out;
}

JsonValue
toJson(const TaskConfig &config)
{
    JsonValue out;
    switch (config.task.kind) {
      case TaskKind::PreTraining:
        out.set("task", "pre-training");
        break;
      case TaskKind::Inference:
        out.set("task", "inference");
        // Batch (the classic whole-context pass) keeps the legacy
        // shape; the serving phases round-trip their KV knobs.
        if (config.task.usesKvCache()) {
            out.set("phase", toString(config.task.phase));
            if (config.task.decodeKvLength > 0)
                out.set("decode_kv_tokens", config.task.decodeKvLength);
            if (config.task.kvCapacityTokens > 0) {
                out.set("kv_capacity_tokens",
                        config.task.kvCapacityTokens);
            }
            if (config.task.kvBytesPerElement != 2.0) {
                out.set("kv_bytes_per_element",
                        config.task.kvBytesPerElement);
            }
        }
        break;
      case TaskKind::FineTuning:
        out.set("task", "fine-tuning");
        out.set("finetune_scope",
                config.task.ftScope == FineTuneScope::EmbeddingOnly
                    ? "embedding"
                    : "dense");
        break;
    }
    JsonValue strategies;
    for (size_t c = 0; c < kNumLayerClasses; ++c) {
        const auto &hs = config.plan.byClass[c];
        if (!hs)
            continue;
        std::string key;
        switch (static_cast<LayerClass>(c)) {
          case LayerClass::SparseEmbedding: key = "sparse_embedding"; break;
          case LayerClass::DenseEmbedding: key = "dense_embedding"; break;
          case LayerClass::BaseDense: key = "base_dense"; break;
          case LayerClass::Transformer: key = "transformer"; break;
          case LayerClass::MoE: key = "moe"; break;
        }
        strategies.set(key, hs->toString());
    }
    out.set("strategies", std::move(strategies));
    out.set("fsdp_prefetch", config.plan.fsdpPrefetch);
    return out;
}

JsonValue
toJson(const InferenceWorkload &workload)
{
    JsonValue out;
    out.set("prompt_tokens", workload.promptTokens);
    out.set("generate_tokens", workload.generateTokens);
    out.set("kv_bytes_per_element", workload.kvBytesPerElement);
    if (!workload.prefillGroup.empty())
        out.set("prefill_group", workload.prefillGroup);
    if (!workload.decodeGroup.empty())
        out.set("decode_group", workload.decodeGroup);
    return out;
}

} // namespace madmax
