/**
 * @file
 * MAD-Max command-line driver. Wraps the library behind the JSON
 * interface of §IV-A:
 *
 *   madmax evaluate --model m.json --system s.json --task t.json
 *       [--trace out.json] [--format json|text]
 *   madmax explore  --model m.json --system s.json --task t.json
 *       [--top N] [--jobs N] [--no-memory-limit] [--format json|text]
 *   madmax pareto   --model m.json --task t.json
 *       [--system s.json [--node-counts 8,16,32] | --catalog cloud
 *       [--nodes N]] [--strategy NAME] [--budget N] [--seed N]
 *       [--jobs N] [--top N] [--format json|text]
 *   madmax describe --model m.json
 *   madmax serve    [--port N] [--jobs N] [--workers N]
 *       [--queue-depth N] [--idle-timeout SEC] [--keep-alive-max N]
 *       [--config-cache N] [--request-timeout-ms N]
 *       [--breaker-threshold N] [--breaker-open-ms N]
 *       [--batch-watchdog-ms N] [--faults SPEC]
 *
 * Exit codes: 0 success, 1 usage/configuration error (including
 * unknown flags), 2 evaluated but the plan does not fit device
 * memory. `serve` exits 0 on SIGINT/SIGTERM after a clean shutdown.
 * Full reference: docs/cli.md.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "config/config_loader.hh"
#include "dse/pareto_engine.hh"
#include "dse/strategy_explorer.hh"
#include "serve/service.hh"
#include "trace/chrome_trace.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/strfmt.hh"
#include "util/table.hh"

using namespace madmax;

namespace
{

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  madmax evaluate --model M.json --system S.json --task T.json\n"
        "                  [--trace OUT.json] [--format json|text]\n"
        "  madmax explore  --model M.json --system S.json --task T.json\n"
        "                  [--top N] [--jobs N] [--no-memory-limit]\n"
        "                  [--format json|text]\n"
        "  madmax pareto   --model M.json --task T.json\n"
        "                  [--system S.json [--node-counts 8,16,32] |\n"
        "                  --catalog cloud [--nodes N]]\n"
        "                  [--strategy exhaustive|coordinate-descent|\n"
        "                  annealing|genetic] [--budget N] [--seed N]\n"
        "                  [--jobs N] [--top N] [--no-baselines]\n"
        "                  [--format json|text]\n"
        "  madmax pareto   --model M.json --system S.json\n"
        "                  --workload W.json  (serving-placement\n"
        "                  search; docs/inference.md) [--jobs N]\n"
        "                  [--top N] [--format json|text]\n"
        "  madmax describe --model M.json\n"
        "  madmax serve    [--port N] [--jobs N] [--workers N]\n"
        "                  [--queue-depth N] [--idle-timeout SEC]\n"
        "                  [--keep-alive-max N] [--config-cache N]\n"
        "                  [--request-timeout-ms N] [--breaker-threshold N]\n"
        "                  [--breaker-open-ms N] [--batch-watchdog-ms N]\n"
        "                  [--faults SPEC]  (docs/resilience.md)\n"
        "see docs/cli.md for the full flag and exit-code reference\n";
    return 1;
}

/** The flags one subcommand accepts: value flags take an argument,
 *  boolean flags do not. Anything else is rejected. */
struct FlagSpec
{
    std::set<std::string> value;
    std::set<std::string> boolean;
};

/**
 * Parse --key value pairs and boolean --flags, rejecting anything the
 * subcommand does not accept — a typo like --modle must fail loudly
 * (exit 1), not silently evaluate defaults.
 */
std::map<std::string, std::string>
parseFlags(int argc, char **argv, int start, const std::string &cmd,
           const FlagSpec &spec)
{
    std::map<std::string, std::string> flags;
    for (int i = start; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument: " + arg);
        std::string key = arg.substr(2);
        if (spec.boolean.count(key)) {
            flags[key] = "true";
        } else if (spec.value.count(key)) {
            if (i + 1 >= argc)
                fatal("missing value for --" + key);
            flags[key] = argv[++i];
        } else {
            std::string known;
            for (const std::string &k : spec.value)
                known += " --" + k;
            for (const std::string &k : spec.boolean)
                known += " --" + k;
            fatal("unknown flag --" + key + " for '" + cmd +
                  "' (supported:" + known +
                  "; run madmax without arguments for usage)");
        }
    }
    return flags;
}

const std::string &
require(const std::map<std::string, std::string> &flags,
        const std::string &key)
{
    auto it = flags.find(key);
    if (it == flags.end())
        fatal("missing required flag --" + key);
    return it->second;
}

/** Parse an integer flag with a range check; fatal (exit 1) on junk
 *  like `--top x` instead of an uncaught std::stoul abort. */
long
intFlag(const std::map<std::string, std::string> &flags,
        const std::string &key, long fallback, long min, long max)
{
    auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    long v = 0;
    try {
        size_t consumed = 0;
        v = std::stol(it->second, &consumed);
        if (consumed != it->second.size())
            throw std::invalid_argument(it->second);
    } catch (const std::exception &) {
        fatal("--" + key + " needs an integer, got '" + it->second +
              "'");
    }
    if (v < min || v > max)
        fatal("--" + key + " must be in [" + std::to_string(min) +
              ", " + std::to_string(max) + "], got " + it->second);
    return v;
}

/** Resolve --format json|text (and the legacy --json alias). */
bool
wantJson(const std::map<std::string, std::string> &flags)
{
    auto it = flags.find("format");
    if (it != flags.end()) {
        if (it->second == "json")
            return true;
        if (it->second == "text")
            return false;
        fatal("--format must be 'json' or 'text', got '" + it->second +
              "'");
    }
    return flags.count("json") > 0;
}

int
cmdEvaluate(const std::map<std::string, std::string> &flags)
{
    ModelDesc model = loadModelFile(require(flags, "model"));
    ClusterSpec cluster = loadClusterFile(require(flags, "system"));
    TaskConfig task = loadTaskFile(require(flags, "task"));

    // Only --trace consumes the scheduled timeline.
    PerfModelOptions opts;
    opts.keepTimeline = flags.count("trace") > 0;
    PerfModel madmax(cluster, opts);
    PerfReport report = madmax.evaluate(model, task.task, task.plan);

    if (flags.count("trace") && report.valid) {
        std::ofstream out(flags.at("trace"));
        if (!out)
            fatal("cannot write trace file: " + flags.at("trace"));
        writeChromeTrace(report.timeline, out);
    }
    if (wantJson(flags))
        std::cout << toJson(report).dump(2) << "\n";
    else
        std::cout << report.summary();
    return report.valid ? 0 : 2;
}

int
cmdExplore(const std::map<std::string, std::string> &flags)
{
    ModelDesc model = loadModelFile(require(flags, "model"));
    ClusterSpec cluster = loadClusterFile(require(flags, "system"));
    TaskConfig task = loadTaskFile(require(flags, "task"));
    size_t top = static_cast<size_t>(
        intFlag(flags, "top", 5, 0, 1L << 30));

    EvalEngineOptions engine_opts;
    engine_opts.jobs =
        static_cast<int>(intFlag(flags, "jobs", 1, 0, 4096));
    EvalEngine engine(engine_opts);

    PerfModelOptions opts;
    opts.ignoreMemory = flags.count("no-memory-limit") > 0;
    PerfModel madmax(cluster, opts);
    StrategyExplorer explorer(madmax, &engine);
    Exploration exploration = explorer.explore(model, task.task);

    if (wantJson(flags)) {
        std::cout << toJson(exploration, top).dump(2) << "\n";
        return 0;
    }

    AsciiTable table({"rank", "plan", "throughput", "mem/device",
                      "verdict"});
    size_t shown = 0;
    for (const ExplorationResult &r : exploration.results) {
        if (shown >= top)
            break;
        ++shown;
        table.addRow({std::to_string(shown), r.plan.toString(),
                      r.report.valid
                          ? formatCount(r.report.throughput()) + "/s"
                          : "-",
                      formatBytes(r.report.memory.total()),
                      r.report.valid ? "ok" : "OOM"});
    }
    table.print(std::cout);
    const EvalStats &s = exploration.stats;
    std::cout << strfmt(
        "search: %ld evaluations, %ld cache hits, %ld pruned, %s "
        "(%d jobs)\n",
        s.evaluations, s.cacheHits, s.pruned,
        formatTime(s.wallSeconds).c_str(), engine.jobs());
    return 0;
}

/** Parse a "--node-counts 8,16,32" comma list. @throws ConfigError */
std::vector<int>
parseNodeCounts(const std::string &value)
{
    std::vector<int> counts;
    size_t pos = 0;
    while (pos <= value.size()) {
        size_t comma = value.find(',', pos);
        std::string item = value.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        long n = 0;
        try {
            size_t consumed = 0;
            n = std::stol(item, &consumed);
            if (consumed != item.size())
                throw std::invalid_argument(item);
        } catch (const std::exception &) {
            fatal("--node-counts needs a comma-separated integer "
                  "list, got '" + value + "'");
        }
        if (n < 1 || n > 65536)
            fatal("--node-counts entries must be in [1, 65536], got " +
                  item);
        counts.push_back(static_cast<int>(n));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (counts.empty())
        fatal("--node-counts list is empty");
    return counts;
}

/** `madmax pareto --workload W.json`: serving-placement search over a
 *  (possibly heterogeneous) system instead of a task-plan sweep. */
int
cmdParetoWorkload(const std::map<std::string, std::string> &flags)
{
    for (const char *other :
         {"task", "catalog", "nodes", "node-counts", "strategy",
          "budget", "seed", "no-baselines"}) {
        if (flags.count(other)) {
            fatal(strfmt("--workload derives the serving phases "
                         "itself and searches placements exhaustively; "
                         "--%s does not apply (supported: --model "
                         "--system --workload --jobs --top --format)",
                         other));
        }
    }
    ModelDesc model = loadModelFile(require(flags, "model"));
    ClusterSpec cluster = loadClusterFile(require(flags, "system"));
    InferenceWorkload workload =
        loadWorkloadFile(require(flags, "workload"));

    EvalEngineOptions engine_opts;
    engine_opts.jobs =
        static_cast<int>(intFlag(flags, "jobs", 1, 0, 4096));
    EvalEngine engine(engine_opts);
    InferencePlacementFrontier frontier =
        exploreInferencePlacements(model, workload, cluster, {},
                                   &engine);

    if (wantJson(flags)) {
        std::cout << toJson(frontier).dump(2) << "\n";
        return frontier.points.empty() ? 2 : 0;
    }

    size_t top = static_cast<size_t>(
        intFlag(flags, "top", 0, 0, 1L << 30));
    std::cout << strfmt(
        "placement search: %zu islands, %zu placements evaluated, "
        "%zu on frontier\n",
        frontier.islands.size(), frontier.candidates.size(),
        frontier.points.size());
    AsciiTable table({"rank", "prefill", "decode", "plan (prefill)",
                      "plan (decode)", "tokens/s", "perf/($/hr)",
                      "max seqs"});
    size_t shown = 0;
    for (const InferencePlacementCandidate &c : frontier.points) {
        if (top != 0 && shown >= top)
            break;
        ++shown;
        table.addRow(
            {std::to_string(shown),
             frontier.islands[static_cast<size_t>(c.prefillIsland)],
             frontier.islands[static_cast<size_t>(c.decodeIsland)],
             c.prefillPlan.toString(), c.decodePlan.toString(),
             formatCount(c.objectives.tokensPerSecond) + "/s",
             strfmt("%.4g", c.objectives.perfPerTco),
             formatCount(c.objectives.maxConcurrentSequences)});
    }
    table.print(std::cout);
    if (!frontier.points.empty())
        std::cout << "\n" << frontier.points.front().report.summary();
    const EvalStats &s = frontier.stats;
    std::cout << strfmt(
        "search: %ld evaluations, %ld cache hits, %ld pruned, %s "
        "(%d jobs)\n",
        s.evaluations, s.cacheHits, s.pruned,
        formatTime(s.wallSeconds).c_str(), engine.jobs());
    return frontier.points.empty() ? 2 : 0;
}

int
cmdPareto(const std::map<std::string, std::string> &flags)
{
    if (flags.count("workload"))
        return cmdParetoWorkload(flags);
    ModelDesc model = loadModelFile(require(flags, "model"));
    TaskConfig task = loadTaskFile(require(flags, "task"));

    // The hardware axis of the joint space: one system (optionally
    // swept over node counts), or the public-cloud instance catalog.
    std::vector<HardwarePoint> hw;
    if (flags.count("system")) {
        if (flags.count("catalog") || flags.count("nodes"))
            fatal("--system and --catalog/--nodes are mutually "
                  "exclusive");
        ClusterSpec cluster = loadClusterFile(flags.at("system"));
        if (flags.count("node-counts"))
            hw = nodeCountSweep(cluster,
                                parseNodeCounts(flags.at("node-counts")));
        else
            hw = {makeHardwarePoint(cluster)};
    } else {
        if (flags.count("node-counts"))
            fatal("--node-counts requires --system");
        std::string catalog = flags.count("catalog")
            ? flags.at("catalog") : "cloud";
        if (catalog != "cloud")
            fatal("unknown --catalog '" + catalog +
                  "' (supported: cloud)");
        hw = cloudHardwareCatalog(
            static_cast<int>(intFlag(flags, "nodes", 16, 1, 4096)));
    }

    EvalEngineOptions engine_opts;
    engine_opts.jobs =
        static_cast<int>(intFlag(flags, "jobs", 1, 0, 4096));
    EvalEngine engine(engine_opts);
    ParetoEngine pareto(std::move(hw), &engine);

    ParetoOptions opts;
    opts.strategy = flags.count("strategy") ? flags.at("strategy")
                                            : "exhaustive";
    opts.search.maxEvaluations =
        intFlag(flags, "budget", 0, 0, 1L << 30);
    opts.search.seed = static_cast<uint64_t>(
        intFlag(flags, "seed",
                static_cast<long>(SearchOptions{}.seed), 0,
                std::numeric_limits<long>::max()));
    opts.includeBaselines = flags.count("no-baselines") == 0;
    ParetoFrontier frontier = pareto.explore(model, task.task, opts);

    if (wantJson(flags)) {
        std::cout << toJson(frontier, pareto.hardware()).dump(2)
                  << "\n";
        return 0;
    }

    size_t top = static_cast<size_t>(
        intFlag(flags, "top", 0, 0, 1L << 30));
    std::cout << strfmt(
        "strategy: %s over %zu hardware points (%zu points visited, "
        "%zu on frontier)\n",
        frontier.strategy.c_str(), pareto.hardware().size(),
        frontier.candidates.size(), frontier.points.size());
    AsciiTable table({"rank", "hardware", "plan", "throughput",
                      "perf/($/hr)", "mem headroom"});
    size_t shown = 0;
    for (const ParetoCandidate &c : frontier.points) {
        if (top != 0 && shown >= top)
            break;
        ++shown;
        table.addRow(
            {std::to_string(shown),
             pareto.hardware()[c.hwIndex].name, c.plan.toString(),
             formatCount(c.objectives.throughput) + "/s",
             strfmt("%.4g", c.objectives.perfPerTco),
             formatBytes(c.objectives.memHeadroomBytes)});
    }
    table.print(std::cout);
    const EvalStats &s = frontier.stats;
    std::cout << strfmt(
        "search: %ld evaluations, %ld cache hits, %ld pruned, %s "
        "(%d jobs)\n",
        s.evaluations, s.cacheHits, s.pruned,
        formatTime(s.wallSeconds).c_str(), engine.jobs());
    return 0;
}

int
cmdDescribe(const std::map<std::string, std::string> &flags)
{
    ModelDesc model = loadModelFile(require(flags, "model"));
    ModelTotals totals = model.graph.totals();

    JsonValue layers;
    for (int i = 0; i < model.graph.numLayers(); ++i) {
        const Layer &layer = model.graph.layer(i);
        JsonValue entry;
        entry.set("name", layer.name());
        entry.set("kind", toString(layer.kind()));
        entry.set("class", toString(layer.layerClass()));
        entry.set("params", layer.paramCount());
        entry.set("forward_flops_per_sample",
                  layer.forwardFlopsPerSample());
        layers.append(std::move(entry));
    }
    JsonValue out;
    out.set("name", model.name);
    out.set("global_batch", model.globalBatchSize);
    out.set("context_length", model.contextLength);
    out.set("total_params", totals.paramCount);
    out.set("forward_flops_per_token", model.forwardFlopsPerToken());
    out.set("lookup_bytes_per_sample", totals.lookupBytesPerSample);
    out.set("num_layers", static_cast<long>(model.graph.numLayers()));
    out.set("layers", std::move(layers));
    std::cout << out.dump(2) << "\n";
    return 0;
}

std::atomic<bool> g_shutdown{false};

extern "C" void
onShutdownSignal(int)
{
    g_shutdown.store(true);
}

int
cmdServe(const std::map<std::string, std::string> &flags)
{
    ServiceOptions sopts;
    sopts.jobs = static_cast<int>(intFlag(flags, "jobs", 0, 0, 4096));
    sopts.configCacheCapacity = static_cast<size_t>(
        intFlag(flags, "config-cache", 1024, 1, 1L << 20));
    sopts.requestTimeoutMillis =
        intFlag(flags, "request-timeout-ms", 0, 0, 3600000);
    sopts.breakerFailureThreshold = static_cast<int>(
        intFlag(flags, "breaker-threshold", 5, 1, 1 << 20));
    sopts.breakerOpenMillis =
        intFlag(flags, "breaker-open-ms", 1000, 1, 3600000);
    sopts.batchWatchdogMillis =
        intFlag(flags, "batch-watchdog-ms", 2000, 0, 3600000);

    // Fault injection (docs/resilience.md): the flag wins over the
    // MADMAX_FAULTS environment variable; either arms the same
    // process-global registry before any request is served.
    auto faultsFlag = flags.find("faults");
    if (faultsFlag != flags.end())
        FaultInjection::configure(faultsFlag->second);
    else
        FaultInjection::configureFromEnv();

    EvalService service(sopts);

    HttpServerOptions hopts;
    hopts.port =
        static_cast<int>(intFlag(flags, "port", 8080, 0, 65535));
    hopts.workers =
        static_cast<int>(intFlag(flags, "workers", 4, 1, 256));
    hopts.queueDepth = static_cast<int>(
        intFlag(flags, "queue-depth", 64, 1, 1 << 16));
    hopts.idleTimeoutSeconds = static_cast<int>(
        intFlag(flags, "idle-timeout", 30, 1, 86400));
    hopts.keepAliveMaxRequests = static_cast<long>(
        intFlag(flags, "keep-alive-max", 1000, 1, 1L << 30));
    hopts.classifier = [&service](const HttpRequest &r) {
        return service.classify(r);
    };
    HttpServer server(
        [&service](const HttpRequest &r) { return service.handle(r); },
        hopts);
    service.setTransportStatsProvider(
        [&server] { return server.stats(); });

    std::signal(SIGINT, onShutdownSignal);
    std::signal(SIGTERM, onShutdownSignal);

    server.start();
    std::cerr << "madmax serve: listening on http://127.0.0.1:"
              << server.port() << " ("
              << service.engine().jobs() << " jobs)\n"
              << "endpoints: POST /v1/evaluate, POST /v1/explore, "
                 "POST /v1/pareto, GET /v1/health, GET /v1/stats, "
                 "GET /v1/metrics — see docs/serving.md\n";

    while (!g_shutdown.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::cerr << "madmax serve: shutting down\n";
    server.stop();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    try {
        FlagSpec spec;
        if (cmd == "evaluate") {
            spec.value = {"model", "system", "task", "trace", "format"};
            spec.boolean = {"json"};
            return cmdEvaluate(parseFlags(argc, argv, 2, cmd, spec));
        }
        if (cmd == "explore") {
            spec.value = {"model", "system", "task", "top", "jobs",
                          "format"};
            spec.boolean = {"json", "no-memory-limit"};
            return cmdExplore(parseFlags(argc, argv, 2, cmd, spec));
        }
        if (cmd == "pareto") {
            spec.value = {"model", "task", "system", "workload",
                          "node-counts", "catalog", "nodes", "strategy",
                          "budget", "seed", "jobs", "top", "format"};
            spec.boolean = {"json", "no-baselines"};
            return cmdPareto(parseFlags(argc, argv, 2, cmd, spec));
        }
        if (cmd == "describe") {
            spec.value = {"model"};
            return cmdDescribe(parseFlags(argc, argv, 2, cmd, spec));
        }
        if (cmd == "serve") {
            spec.value = {"port", "jobs", "workers", "queue-depth",
                          "idle-timeout", "keep-alive-max",
                          "config-cache", "request-timeout-ms",
                          "breaker-threshold", "breaker-open-ms",
                          "batch-watchdog-ms", "faults"};
            return cmdServe(parseFlags(argc, argv, 2, cmd, spec));
        }
        std::cerr << "unknown command: " << cmd << "\n";
        return usage();
    } catch (const ConfigError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
