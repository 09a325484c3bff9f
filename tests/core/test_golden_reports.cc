/**
 * @file
 * Golden snapshot tests: the full numeric content of every PerfReport
 * an explore() sweep produces — rankings, timing fields, memory
 * verdicts, breakdowns, and a digest of the scheduled Timeline — is
 * compared byte-for-byte against checked-in golden files generated
 * before the evaluation-hot-path overhaul (shared EvalContext, flat
 * event graph, linear-sweep overlap accounting). Any change to these
 * files means the optimization changed results, which it must not.
 *
 * The serve surface is covered too: the exact /v1/evaluate response
 * body for the shipped configs/ triple is snapshotted, and so are the
 * /v1/stats and /v1/metrics bodies after a fixed request sequence
 * (measured times masked), which pins both observability views.
 * The Fig. 19 scaling study is pinned as well: every axis's best-plan
 * speedup and winning plan for the four DLRM-A / GPT-3 cases. So is
 * one ViT-L pre-training timeline, event by event with its trace
 * names. So is every model graph the zoo and the JSON loader build,
 * layer by layer.
 *
 * Regenerate (only when an *intentional* model change lands) with:
 *   MADMAX_REGEN_GOLDEN=1 ./test_golden_reports
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "../golden_check.hh"
#include "config/config_loader.hh"
#include "dse/strategy_explorer.hh"
#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "serve/service.hh"
#include "util/fault_injection.hh"
#include "util/strfmt.hh"

namespace madmax
{

namespace
{

using testing::checkGolden;

/** FNV-1a over @p r's scheduled Timeline: every event's identity,
 *  DAG shape, name, and scheduled interval, then the makespan and the
 *  report's compute, comm and exposed sums. A report whose timeline
 *  was stripped (cache-served duplicate) digests to the empty-timeline
 *  value, with zero sums, which is itself part of the contract. */
std::string
timelineDigest(const PerfReport &r)
{
    const Timeline &tl = r.timeline;
    uint64_t h = 1469598103934665603ull;
    auto mixByte = [&h](unsigned char b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    auto mixInt = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<unsigned char>((v >> (i * 8)) & 0xffu));
    };
    auto mixDouble = [&](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mixInt(bits);
    };
    auto mixString = [&](const std::string &s) {
        mixInt(s.size());
        for (char c : s)
            mixByte(static_cast<unsigned char>(c));
    };
    mixInt(tl.events.size());
    for (const ScheduledEvent &se : tl.events) {
        const TraceEvent &ev = se.event;
        mixInt(static_cast<uint64_t>(ev.id));
        mixString(ev.name);
        mixInt(static_cast<uint64_t>(ev.stream));
        mixInt(static_cast<uint64_t>(ev.category));
        mixDouble(ev.duration);
        mixInt(ev.deps.size());
        for (int d : ev.deps)
            mixInt(static_cast<uint64_t>(d));
        mixInt(ev.blocking ? 1 : 0);
        mixInt(static_cast<uint64_t>(ev.layerIdx));
        mixInt(ev.backward ? 1 : 0);
        mixDouble(se.start);
        mixDouble(se.finish);
    }
    mixDouble(tl.makespan);
    const bool kept = !tl.events.empty();
    mixDouble(kept ? r.computeTime : 0.0);
    mixDouble(kept ? r.commTime : 0.0);
    mixDouble(kept ? r.exposedCommTime : 0.0);
    return strfmt("%016llx", static_cast<unsigned long long>(h));
}

/** Every numeric field of one report, doubles rendered %.17g (exact
 *  round trip), in a fixed line layout. */
std::string
dumpReport(const PerfReport &r)
{
    std::string out;
    out += "model=" + r.modelName + " cluster=" + r.clusterName +
        " task=" + r.taskName + "\n";
    out += "plan=" + r.plan.toString() +
        strfmt(" prefetch=%d valid=%d gbs=%ld ctx=%ld\n",
               r.plan.fsdpPrefetch ? 1 : 0, r.valid ? 1 : 0,
               r.globalBatchSize, r.contextLength);
    out += strfmt("mem param=%.17g grad=%.17g opt=%.17g act=%.17g "
                  "trans=%.17g usable=%.17g\n",
                  r.memory.paramBytes, r.memory.gradBytes,
                  r.memory.optimizerBytes, r.memory.activationBytes,
                  r.memory.transientBytes, r.memory.usableCapacity);
    out += strfmt("time iter=%.17g ser=%.17g comp=%.17g comm=%.17g "
                  "exp=%.17g\n",
                  r.iterationTime, r.serializedTime, r.computeTime,
                  r.commTime, r.exposedCommTime);
    out += "sbd";
    for (const auto &[cat, sec] : r.serializedBreakdown)
        out += strfmt(" %s=%.17g", toString(cat).c_str(), sec);
    out += "\nebd";
    for (const auto &[cat, sec] : r.exposedBreakdown)
        out += strfmt(" %s=%.17g", toString(cat).c_str(), sec);
    out += strfmt("\ntl n=%zu digest=%s\n", r.timeline.events.size(),
                  timelineDigest(r).c_str());
    return out;
}

/** One explore() sweep through a fresh engine, dumped rank by rank. */
std::string
dumpExploration(const ModelDesc &desc, const TaskSpec &task,
                const ClusterSpec &cluster, const ExplorerOptions &opts,
                int jobs, PerfModelOptions po = {})
{
    EvalEngineOptions eo;
    eo.jobs = jobs;
    EvalEngine engine(eo);
    // Timelines are opt-in; the goldens digest them, so opt in.
    po.keepTimeline = true;
    PerfModel perf(cluster, po);
    StrategyExplorer explorer(perf, &engine);
    Exploration ex = explorer.explore(desc, task, opts);

    std::string out;
    out += strfmt("results=%zu\n", ex.results.size());
    for (size_t i = 0; i < ex.results.size(); ++i) {
        out += strfmt("== rank %03zu ==\n", i);
        out += dumpReport(ex.results[i].report);
    }
    return out;
}

} // namespace

TEST(GoldenReports, ExploreGpt3PretrainIsByteIdenticalAcrossJobs)
{
    ModelDesc desc = model_zoo::gpt3();
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    ExplorerOptions opts;
    opts.explorePrefetch = true;

    std::string jobs1 = dumpExploration(desc, TaskSpec::preTraining(),
                                        cluster, opts, 1);
    std::string jobs4 = dumpExploration(desc, TaskSpec::preTraining(),
                                        cluster, opts, 4);
    EXPECT_EQ(jobs1, jobs4)
        << "explore() must be bitwise thread-count independent";
    checkGolden("explore_gpt3_pretrain.txt", jobs1);
}

TEST(GoldenReports, ExploreGpt3IgnoreMemory)
{
    ModelDesc desc = model_zoo::gpt3();
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    PerfModelOptions po;
    po.ignoreMemory = true;
    checkGolden("explore_gpt3_nomem.txt",
                dumpExploration(desc, TaskSpec::preTraining(), cluster,
                                ExplorerOptions{}, 1, po));
}

TEST(GoldenReports, ExploreGpt3Inference)
{
    ModelDesc desc = model_zoo::gpt3();
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    checkGolden("explore_gpt3_inference.txt",
                dumpExploration(desc, TaskSpec::inference(), cluster,
                                ExplorerOptions{}, 1));
}

TEST(GoldenReports, ExploreDlrmAPretrain)
{
    ModelDesc desc = model_zoo::dlrmA();
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    ExplorerOptions opts;
    opts.explorePrefetch = true;
    checkGolden("explore_dlrm_a_pretrain.txt",
                dumpExploration(desc, TaskSpec::preTraining(), cluster,
                                opts, 1));
}

TEST(GoldenReports, ExploreDlrmAMoePretrain)
{
    ModelDesc desc = model_zoo::dlrmAMoe();
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();
    checkGolden("explore_dlrm_a_moe_pretrain.txt",
                dumpExploration(desc, TaskSpec::preTraining(), cluster,
                                ExplorerOptions{}, 1));
}

TEST(GoldenReports, Fig19ScalingStudy)
{
    // The four Fig. 19 cases across every axis at 10x: each axis's
    // best-plan speedup (exact round trip) and the plan that won.
    struct Case
    {
        const char *label;
        ModelDesc model;
        ClusterSpec cluster;
        TaskSpec task;
    };
    const Case cases[] = {
        {"dlrm_a pretrain", model_zoo::dlrmA(),
         hw_zoo::dlrmTrainingSystem(), TaskSpec::preTraining()},
        {"dlrm_a inference", model_zoo::dlrmA(),
         hw_zoo::dlrmTrainingSystem(), TaskSpec::inference()},
        {"gpt3 pretrain", model_zoo::gpt3(), hw_zoo::llmTrainingSystem(),
         TaskSpec::preTraining()},
        {"gpt3 inference", model_zoo::gpt3(), hw_zoo::llmTrainingSystem(),
         TaskSpec::inference()},
    };
    std::string out;
    for (const Case &c : cases) {
        out += strfmt("== %s ==\n", c.label);
        for (const ScalingResult &r :
             hardwareScalingStudy(c.cluster, c.model, c.task, 10.0)) {
            out += strfmt("%s speedup=%.17g plan=%s\n",
                          toString(r.axis).c_str(), r.speedup,
                          r.best.plan.toString().c_str());
        }
    }
    checkGolden("fig19_scaling.txt", out);
}

TEST(GoldenReports, TraceVitLPretrain)
{
    // Every event of one keepTimeline evaluation, names included:
    // pins the composed trace labels (layer name plus collective or
    // backward suffix) byte for byte, next to each event's stream,
    // layer, and scheduled interval.
    ModelDesc desc = model_zoo::vit(model_zoo::VitSize::L, 2048);
    PerfModelOptions po;
    po.keepTimeline = true;
    PerfModel perf(hw_zoo::llmTrainingSystem(), po);
    ParallelPlan plan = ParallelPlan::fsdpBaseline();
    plan.set(LayerClass::Transformer,
             HierStrategy{Strategy::TP, Strategy::FSDP});
    const PerfReport r =
        perf.evaluate(desc, TaskSpec::preTraining(), plan);
    ASSERT_TRUE(r.valid) << plan.toString() << " must fit";

    std::string out = "plan=" + r.plan.toString() + "\n";
    for (const ScheduledEvent &se : r.timeline.events) {
        const TraceEvent &ev = se.event;
        out += strfmt("%d %s %s layer=%d start=%.17g finish=%.17g\n",
                      ev.id, ev.name.c_str(),
                      toString(ev.stream).c_str(), ev.layerIdx,
                      se.start, se.finish);
    }
    checkGolden("trace_vit_l_pretrain.txt", out);
}

TEST(GoldenReports, ServeEvaluateResponseBody)
{
    const std::string dir = MADMAX_CONFIG_DIR;
    JsonValue body;
    body.set("model", JsonValue::parseFile(dir + "/model_dlrm_a.json"));
    body.set("system",
             JsonValue::parseFile(dir + "/system_zionex.json"));
    body.set("task",
             JsonValue::parseFile(dir + "/task_pretrain_optimal.json"));

    EvalService service;
    HttpRequest req;
    req.method = "POST";
    req.target = "/v1/evaluate";
    req.version = "HTTP/1.1";
    req.body = body.dump(2);
    HttpResponse resp = service.handle(req);
    ASSERT_EQ(resp.status, 200);
    checkGolden("serve_evaluate_dlrm_a.txt", resp.body);
}

namespace
{

/** Mask the value of every line that starts (after indentation) with
 *  one of @p keys: the measured times the observability goldens
 *  carry. The value is the last space-separated token; a trailing
 *  JSON comma survives. */
std::string
maskLines(const std::string &text,
          std::initializer_list<const char *> keys)
{
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
        size_t indent = line.find_first_not_of(' ');
        for (const char *key : keys) {
            if (indent == std::string::npos ||
                line.compare(indent, std::strlen(key), key) != 0)
                continue;
            bool comma = line.back() == ',';
            line = line.substr(0, line.rfind(' ') + 1) + "<masked>" +
                (comma ? "," : "");
        }
        out += line + "\n";
    }
    return out;
}

} // namespace

TEST(GoldenReports, ServeStatsAndMetricsBodies)
{
    // A fixed request sequence fills every section of both views: a
    // cold and a memo-hit evaluate, an explore, a pareto, a health
    // probe, one evaluate failed by an armed fault, and a transport
    // provider with fixed counts.
    const std::string dir = MADMAX_CONFIG_DIR;
    JsonValue triple;
    triple.set("model", JsonValue::parseFile(dir + "/model_dlrm_a.json"));
    triple.set("system",
               JsonValue::parseFile(dir + "/system_zionex.json"));
    triple.set("task",
               JsonValue::parseFile(dir + "/task_pretrain_optimal.json"));
    JsonValue topo = triple;
    topo.set("system",
             JsonValue::parseFile(dir + "/system_zionex_topo.json"));

    ServiceOptions opts;
    opts.jobs = 1;
    EvalService service(opts);
    service.setTransportStatsProvider([] {
        HttpServerStats t;
        t.accepted = 1;
        t.served = 2;
        t.rejectedQueueFull = 3;
        t.badRequests = 4;
        t.keepAliveReuses = 5;
        t.pipelinedRequests = 6;
        t.shedExpensive = 7;
        t.shedCached = 8;
        t.idleClosed = 9;
        t.deadlineClosed = 10;
        t.partialWrites = 11;
        t.fdExhausted = 12;
        t.fdRejects = 13;
        return t;
    });
    auto call = [&service](const char *method, const char *target,
                           const std::string &body) {
        HttpRequest req;
        req.method = method;
        req.target = target;
        req.version = "HTTP/1.1";
        req.body = body;
        return service.handle(req);
    };

    EXPECT_EQ(call("POST", "/v1/evaluate", triple.dump()).status, 200);
    EXPECT_EQ(call("POST", "/v1/evaluate", triple.dump()).status, 200);
    EXPECT_EQ(call("POST", "/v1/explore", triple.dump()).status, 200);
    EXPECT_EQ(call("POST", "/v1/pareto", triple.dump()).status, 200);
    EXPECT_EQ(call("GET", "/v1/health", "").status, 200);

    FaultScope scope("engine.eval=throw@nth:1");
    EXPECT_EQ(call("POST", "/v1/evaluate", topo.dump()).status, 500);

    HttpResponse stats = call("GET", "/v1/stats", "");
    ASSERT_EQ(stats.status, 200);
    checkGolden("serve_stats.txt",
                maskLines(stats.body,
                          {"\"uptime_seconds\": ", "\"wall_seconds\": "}));

    HttpResponse metrics = call("GET", "/v1/metrics", "");
    ASSERT_EQ(metrics.status, 200);
    checkGolden("serve_metrics.txt",
                maskLines(metrics.body,
                          {"madmax_uptime_seconds ",
                           "madmax_engine_wall_seconds_total ",
                           "madmax_request_seconds_total{"}));
}

namespace
{

/** Every ModelDesc field and, per layer, its index, name, kind,
 *  class, deps, and %.17g parameter and forward FLOP counts. */
std::string
dumpModel(const std::string &source, const ModelDesc &m)
{
    std::string out = "== " + source + " ==\n";
    out += strfmt("name=%s gbs=%ld ctx=%ld compute=%s param=%s rec=%d "
                  "layers=%d\n",
                  m.name.c_str(), m.globalBatchSize, m.contextLength,
                  toString(m.computeDtype).c_str(),
                  toString(m.paramDtype).c_str(),
                  m.isRecommendation ? 1 : 0, m.graph.numLayers());
    for (int i = 0; i < m.graph.numLayers(); ++i) {
        const Layer &l = m.graph.layer(i);
        std::string deps;
        for (int d : m.graph.deps(i))
            deps += (deps.empty() ? "" : ",") + std::to_string(d);
        out += strfmt("%d %s %s %s deps=[%s] params=%.17g flops=%.17g\n",
                      i, l.name().c_str(), toString(l.kind()).c_str(),
                      toString(l.layerClass()).c_str(), deps.c_str(),
                      l.paramCount(), l.forwardFlopsPerSample());
    }
    return out;
}

} // namespace

TEST(GoldenReports, ModelGraphs)
{
    // Both build paths: every zoo factory, every shipped model config,
    // and the custom dlrm/llm documents of the config-loader suite.
    std::string out;
    for (const ModelDesc &m : model_zoo::tableIISuite())
        out += dumpModel("zoo " + m.name, m);
    for (long ctx : {4096L, 2048L}) {
        out += dumpModel(strfmt("zoo llama2_7b(%ld)", ctx),
                         model_zoo::llama2_7b(ctx));
        out += dumpModel(strfmt("zoo llama2_13b(%ld)", ctx),
                         model_zoo::llama2_13b(ctx));
    }
    out += dumpModel("zoo llama2WithContext(8192)",
                     model_zoo::llama2WithContext(8192));
    for (model_zoo::VitSize size :
         {model_zoo::VitSize::L, model_zoo::VitSize::H,
          model_zoo::VitSize::G, model_zoo::VitSize::B22,
          model_zoo::VitSize::B120}) {
        out += dumpModel("zoo vit " + model_zoo::toString(size),
                         model_zoo::vit(size, 2048));
    }

    std::vector<std::string> configs;
    for (const auto &entry :
         std::filesystem::directory_iterator(MADMAX_CONFIG_DIR)) {
        const std::string file = entry.path().filename().string();
        if (file.rfind("model_", 0) == 0 &&
            entry.path().extension() == ".json")
            configs.push_back(file);
    }
    std::sort(configs.begin(), configs.end());
    for (const std::string &file : configs) {
        out += dumpModel("configs/" + file,
                         loadModelFile(std::string(MADMAX_CONFIG_DIR) +
                                       "/" + file));
    }

    const char *custom[] = {
        R"json({"type": "dlrm", "name": "my-dlrm", "global_batch": 8192,
            "embedding": {"tables": 100, "rows_per_table": 1000000,
                          "dim": 64, "pooling": 10},
            "bottom_mlp": [256, 512, 64], "top_mlp": [512, 1024, 1]})json",
        R"json({"type": "dlrm", "global_batch": 8192,
            "embedding": {"tables": 10, "rows_per_table": 1000,
                          "dim": 64, "pooling": 2},
            "bottom_mlp": [64, 64],
            "transformer": {"layers": 2, "hidden": 128, "heads": 4,
                            "seq": 16, "ffn": 512},
            "moe": {"experts": 8, "active": 2, "ffn": 256},
            "top_mlp": [128, 1]})json",
        R"json({"type": "llm", "name": "tiny-llm", "global_batch": 64,
            "context": 1024, "vocab": 32000, "hidden": 1024,
            "layers": 4, "heads": 16, "ffn": 4096, "ffn_matrices": 3,
            "kv_heads": 4, "embedding_tie_factor": 2})json",
        R"json({"type": "llm", "global_batch": 64, "context": 128,
            "vocab": 1000, "hidden": 256, "layers": 2, "heads": 4,
            "ffn": 1024, "moe": {"experts": 4, "active": 1}})json",
    };
    int n = 0;
    for (const char *doc : custom) {
        out += dumpModel(strfmt("custom %d", n++),
                         loadModel(JsonValue::parse(doc)));
    }
    checkGolden("model_graphs.txt", out);
}

} // namespace madmax
