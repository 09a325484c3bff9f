#include "serve/service.hh"

#include "config/config_loader.hh"
#include "dse/pareto_engine.hh"
#include "dse/strategy_explorer.hh"
#include "serve/errors.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

/** Parse + shape-check a request body that must carry the config
 *  triple. @throws ConfigError (-> 400) on malformed input. */
JsonValue
parseTripleBody(const HttpRequest &request)
{
    JsonValue body = JsonValue::parse(request.body);
    if (!body.isObject())
        fatal("request body must be a JSON object with \"model\", "
              "\"system\", and \"task\" members");
    for (const char *key : {"model", "system", "task"})
        if (!body.has(key))
            fatal(std::string("request body missing \"") + key +
                  "\" member");
    return body;
}

HttpResponse
jsonResponse(const JsonValue &doc)
{
    HttpResponse resp;
    // dump(2) + "\n" is exactly what the CLI prints with
    // --format json; keeping the framing identical here is what makes
    // responses byte-comparable against `madmax_cli evaluate`.
    resp.body = doc.dump(2) + "\n";
    return resp;
}

/** What a counter row's samples fan out over. */
enum class Fan
{
    One,       ///< One unlabelled sample.
    Transport, ///< One unlabelled sample, only with a transport wired.
    Endpoint,  ///< endpoint="...": one per routed endpoint.
    Tier,      ///< tier="expensive"|"cached": transport only.
    Point,     ///< point="...": one per armed fault point.
};

using S = ServiceStats; ///< Short for the table's read lambdas.

/**
 * One counter as both observability views spell it. A '*' in the
 * /v1/stats path takes the sample's label value; a "name[]" segment is
 * an array holding one object per label value, which carries the
 * value under the label's name.
 */
struct CounterRow
{
    const char *json; ///< Dotted /v1/stats path; null: metrics only.
    const char *prom; ///< /v1/metrics family; null: stats only.
    const char *help;
    const char *type; ///< Prometheus type: "counter" or "gauge".
    double (*read)(const S &, size_t sample);
    Fan fan = Fan::One;
    bool jsonOmitsZero = false; ///< /v1/stats leaves a zero out.
};

constexpr const char *kCounter = "counter";
constexpr const char *kGauge = "gauge";

/**
 * Every counter the service reports, in /v1/metrics family order
 * (/v1/stats objects sort their keys, so its order is free). Both
 * views render from this table alone; a row with a null path or
 * family is deliberately single-view and says why.
 */
const CounterRow kCounterRows[] = {
    {"uptime_seconds", "madmax_uptime_seconds",
     "Seconds since service start.", kGauge,
     [](const S &s, size_t) { return s.uptimeSeconds; }},
    {"server.requests.*", "madmax_requests_total",
     "Requests routed, by endpoint.", kCounter,
     [](const S &s, size_t i) -> double {
         return s.endpoints[i].requests;
     },
     Fan::Endpoint},
    // Metrics only: a new member would change the /v1/stats shape.
    {nullptr, "madmax_request_seconds_total",
     "Cumulative handler wall time, by endpoint.", kCounter,
     [](const S &s, size_t i) { return s.endpoints[i].nanos * 1e-9; },
     Fan::Endpoint},
    // Stats only: a derived sum; a scraper sums the endpoint= family.
    {"server.requests_total", nullptr, nullptr, kCounter,
     [](const S &s, size_t) {
         double total = 0;
         for (const EndpointStats &e : s.endpoints)
             total += static_cast<double>(e.requests);
         return total;
     }},
    {"server.errors", "madmax_errors_total",
     "Responses with status >= 400 (any endpoint).", kCounter,
     [](const S &s, size_t) -> double { return s.errors; }},
    {"server.eval_failures", "madmax_eval_failures_total",
     "Evaluate requests whose report came back failed.", kCounter,
     [](const S &s, size_t) -> double { return s.evalFailures; }},
    {"server.circuit_breaker.trips", "madmax_breaker_trips_total",
     "Circuit-breaker keys tripped open.", kCounter,
     [](const S &s, size_t) -> double { return s.breaker.trips; }},
    {"server.circuit_breaker.rejects", "madmax_breaker_rejects_total",
     "Requests fast-failed by an open breaker.", kCounter,
     [](const S &s, size_t) -> double { return s.breaker.rejects; }},
    {"server.circuit_breaker.probes", "madmax_breaker_probes_total",
     "Half-open probe requests admitted.", kCounter,
     [](const S &s, size_t) -> double { return s.breaker.probes; }},
    {"server.circuit_breaker.recoveries",
     "madmax_breaker_recoveries_total",
     "Breaker keys recovered to closed.", kCounter,
     [](const S &s, size_t) -> double { return s.breaker.recoveries; }},
    {"server.circuit_breaker.open_now", "madmax_breaker_open",
     "Keys currently open or half-open.", kGauge,
     [](const S &s, size_t) -> double { return s.breaker.openNow; }},
    {"server.faults[].hits", "madmax_fault_hits_total",
     "Times an armed fault point was reached.", kCounter,
     [](const S &s, size_t i) -> double { return s.faults[i].hits; },
     Fan::Point},
    {"server.faults[].injected", "madmax_fault_injected_total",
     "Times an armed fault point actually fired.", kCounter,
     [](const S &s, size_t i) -> double { return s.faults[i].injected; },
     Fan::Point},
    {"engine.lifetime.evaluations", "madmax_engine_evaluations_total",
     "Fresh model evaluations executed.", kCounter,
     [](const S &s, size_t) -> double {
         return s.engine.lifetime.evaluations;
     }},
    {"engine.lifetime.cache_hits", "madmax_engine_cache_hits_total",
     "Evaluations served from the memo cache.", kCounter,
     [](const S &s, size_t) -> double {
         return s.engine.lifetime.cacheHits;
     }},
    {"engine.lifetime.pruned", "madmax_engine_pruned_total",
     "OOM plans resolved by the memory pre-pass.", kCounter,
     [](const S &s, size_t) -> double { return s.engine.lifetime.pruned; }},
    {"engine.lifetime.wall_seconds", "madmax_engine_wall_seconds_total",
     "Cumulative wall time inside the engine.", kCounter,
     [](const S &s, size_t) { return s.engine.lifetime.wallSeconds; }},
    // A zero stays out of /v1/stats, as toJson(EvalStats) keeps it out
    // of the explore and pareto documents.
    {"engine.lifetime.failed", "madmax_engine_failed_total",
     "Evaluations that threw instead of completing.", kCounter,
     [](const S &s, size_t) -> double { return s.engine.lifetime.failed; },
     Fan::One, true},
    {"engine.cache.entries", "madmax_engine_cache_entries",
     "Memo-cache occupancy.", kGauge,
     [](const S &s, size_t) -> double { return s.engine.cacheEntries; }},
    {"engine.cache.capacity", "madmax_engine_cache_capacity",
     "Memo-cache entry cap.", kGauge,
     [](const S &s, size_t) -> double { return s.engine.cacheCapacity; }},
    {"engine.cache.insertions", "madmax_engine_cache_insertions_total",
     "Reports inserted into the memo cache.", kCounter,
     [](const S &s, size_t) -> double { return s.engine.cacheInsertions; }},
    {"engine.cache.evictions", "madmax_engine_cache_evictions_total",
     "Memo-cache entries evicted.", kCounter,
     [](const S &s, size_t) -> double { return s.engine.cacheEvictions; }},
    {"engine.batches.calls", "madmax_engine_batch_calls_total",
     "evaluateAll batches submitted.", kCounter,
     [](const S &s, size_t) -> double { return s.engine.batches; }},
    {"engine.batches.requests", "madmax_engine_batch_requests_total",
     "Points submitted across all batches.", kCounter,
     [](const S &s, size_t) -> double { return s.engine.batchRequests; }},
    {"engine.batches.max_requests", "madmax_engine_batch_max_requests",
     "Largest evaluateAll batch.", kGauge,
     [](const S &s, size_t) -> double { return s.engine.maxBatchRequests; }},
    {"engine.jobs", "madmax_engine_jobs", "Engine worker threads.", kGauge,
     [](const S &s, size_t) -> double { return s.jobs; }},
    {"server.batching.windows", "madmax_batch_windows_total",
     "Batches the dispatcher submitted to the engine.", kCounter,
     [](const S &s, size_t) -> double { return s.batching.windows; }},
    {"server.batching.batched_requests", "madmax_batch_requests_total",
     "Requests that entered a batch.", kCounter,
     [](const S &s, size_t) -> double { return s.batching.requests; }},
    {"server.batching.coalesced_requests",
     "madmax_batch_coalesced_requests_total",
     "Batched requests that shared their batch.", kCounter,
     [](const S &s, size_t) -> double { return s.batching.coalesced; }},
    {"server.batching.max_occupancy", "madmax_batch_max_occupancy",
     "Largest batch submitted.", kGauge,
     [](const S &s, size_t) -> double { return s.batching.maxOccupancy; }},
    {"server.batching.memo_fast_path", "madmax_batch_memo_fast_path_total",
     "Evaluate requests answered from the memo cache without a batch.",
     kCounter,
     [](const S &s, size_t) -> double { return s.batching.memoFastPath; }},
    {"server.batching.watchdog_takeovers",
     "madmax_batch_watchdog_takeovers_total",
     "Rescue leaders spawned past a wedged batch leader.", kCounter,
     [](const S &s, size_t) -> double {
         return s.batching.watchdogTakeovers;
     }},
    {"server.batching.deadline_timeouts",
     "madmax_batch_deadline_timeouts_total",
     "Requests abandoned at their deadline.", kCounter,
     [](const S &s, size_t) -> double {
         return s.batching.deadlineTimeouts;
     }},
    {"server.config_cache.hits", "madmax_config_cache_hits_total",
     "Request bodies whose parse was reused.", kCounter,
     [](const S &s, size_t) -> double { return s.configCache.hits; }},
    {"server.config_cache.misses", "madmax_config_cache_misses_total",
     "Request bodies parsed cold.", kCounter,
     [](const S &s, size_t) -> double { return s.configCache.misses; }},
    {"server.config_cache.entries", "madmax_config_cache_entries",
     "Parsed-config cache occupancy.", kGauge,
     [](const S &s, size_t) -> double { return s.configCache.entries; }},
    {"server.config_cache.capacity", "madmax_config_cache_capacity",
     "Parsed-config cache entry cap.", kGauge,
     [](const S &s, size_t) -> double { return s.configCache.capacity; }},
    {"server.config_cache.evictions", "madmax_config_cache_evictions_total",
     "Request-body entries evicted.", kCounter,
     [](const S &s, size_t) -> double { return s.configCache.evictions; }},
    {"server.config_cache.triple_shares",
     "madmax_config_cache_triple_shares_total",
     "Cold parses that reused an already-parsed triple.", kCounter,
     [](const S &s, size_t) -> double {
         return s.configCache.tripleShares;
     }},
    {"server.pareto_coalesced", "madmax_pareto_coalesced_total",
     "Pareto requests served by a shared in-flight search.", kCounter,
     [](const S &s, size_t) -> double { return s.paretoCoalesced; }},
    {"transport.accepted", "madmax_http_connections_accepted_total",
     "TCP connections accepted.", kCounter,
     [](const S &s, size_t) -> double { return s.transport->accepted; },
     Fan::Transport},
    {"transport.served", "madmax_http_requests_served_total",
     "Requests answered by the handler.", kCounter,
     [](const S &s, size_t) -> double { return s.transport->served; },
     Fan::Transport},
    // Stats only: the sum of the tier= family below.
    {"transport.rejected_queue_full", nullptr, nullptr, kCounter,
     [](const S &s, size_t) -> double {
         return s.transport->rejectedQueueFull;
     },
     Fan::Transport},
    {"transport.keep_alive_reuses", "madmax_http_keepalive_reuses_total",
     "Requests beyond their connection's first.", kCounter,
     [](const S &s, size_t) -> double {
         return s.transport->keepAliveReuses;
     },
     Fan::Transport},
    {"transport.pipelined_requests",
     "madmax_http_pipelined_requests_total",
     "Requests parsed while a response was pending.", kCounter,
     [](const S &s, size_t) -> double {
         return s.transport->pipelinedRequests;
     },
     Fan::Transport},
    {"transport.shed_*", "madmax_http_shed_total",
     "Requests shed by tiered admission control.", kCounter,
     [](const S &s, size_t i) -> double {
         return i == 0 ? s.transport->shedExpensive
                       : s.transport->shedCached;
     },
     Fan::Tier},
    {"transport.bad_requests", "madmax_http_bad_requests_total",
     "Transport-level request rejections.", kCounter,
     [](const S &s, size_t) -> double { return s.transport->badRequests; },
     Fan::Transport},
    {"transport.idle_closed", "madmax_http_idle_closed_total",
     "Keep-alive connections evicted idle.", kCounter,
     [](const S &s, size_t) -> double { return s.transport->idleClosed; },
     Fan::Transport},
    {"transport.deadline_closed", "madmax_http_deadline_closed_total",
     "Connections cut at the request deadline.", kCounter,
     [](const S &s, size_t) -> double {
         return s.transport->deadlineClosed;
     },
     Fan::Transport},
    {"transport.partial_writes", "madmax_http_partial_writes_total",
     "Responses resumed after a short write.", kCounter,
     [](const S &s, size_t) -> double {
         return s.transport->partialWrites;
     },
     Fan::Transport},
    {"transport.fd_exhausted", "madmax_http_fd_exhausted_total",
     "accept() failures on EMFILE/ENFILE.", kCounter,
     [](const S &s, size_t) -> double { return s.transport->fdExhausted; },
     Fan::Transport},
    {"transport.fd_rejects", "madmax_http_fd_rejects_total",
     "Clients answered 503 via the emergency fd.", kCounter,
     [](const S &s, size_t) -> double { return s.transport->fdRejects; },
     Fan::Transport},
};

/** Samples a row has in @p s: 0 drops the row from both views. */
size_t
fanout(Fan fan, const S &s)
{
    switch (fan) {
    case Fan::One:
        return 1;
    case Fan::Transport:
        return s.transport ? 1 : 0;
    case Fan::Endpoint:
        return s.endpoints.size();
    case Fan::Tier:
        return s.transport ? 2 : 0;
    case Fan::Point:
        return s.faults.size();
    }
    return 0;
}

/** Label name and value of sample @p i (null name: unlabelled). */
std::pair<const char *, std::string>
label(Fan fan, const S &s, size_t i)
{
    switch (fan) {
    case Fan::Endpoint:
        return {"endpoint", s.endpoints[i].name};
    case Fan::Tier:
        return {"tier", i == 0 ? "expensive" : "cached"};
    case Fan::Point:
        return {"point", s.faults[i].point};
    default:
        return {nullptr, ""};
    }
}

/** GET /v1/stats: every row with a path, as one JSON document. */
JsonValue
renderStats(const S &s)
{
    JsonValue out;
    for (const CounterRow &row : kCounterRows) {
        if (row.json == nullptr)
            continue;
        for (size_t i = 0, n = fanout(row.fan, s); i < n; ++i) {
            double value = row.read(s, i);
            if (row.jsonOmitsZero && value == 0)
                continue;
            auto [name, tag] = label(row.fan, s, i);
            std::string path = row.json;
            JsonValue *node = &out;
            size_t from = 0;
            for (size_t dot; (dot = path.find('.', from)) !=
                 std::string::npos;
                 from = dot + 1) {
                std::string seg = path.substr(from, dot - from);
                if (seg.size() < 2 || seg.substr(seg.size() - 2) != "[]") {
                    node = &node->member(seg);
                    continue;
                }
                node = &node->member(seg.substr(0, seg.size() - 2));
                if (!node->isArray() || node->size() <= i)
                    node->append(JsonValue().set(name, tag));
                node = &node->element(i);
            }
            std::string leaf = path.substr(from);
            if (size_t star = leaf.find('*'); star != std::string::npos)
                leaf.replace(star, 1, tag);
            node->set(leaf, value);
        }
    }
    return out;
}

/** GET /v1/metrics: every row with a family, in Prometheus text
 *  exposition format (HELP + TYPE + one sample per label value). */
std::string
renderMetrics(const S &s)
{
    std::string out;
    out.reserve(8192);
    for (const CounterRow &row : kCounterRows) {
        size_t n = fanout(row.fan, s);
        if (row.prom == nullptr || n == 0)
            continue;
        out += std::string("# HELP ") + row.prom + " " + row.help + "\n";
        out += std::string("# TYPE ") + row.prom + " " + row.type + "\n";
        for (size_t i = 0; i < n; ++i) {
            out += row.prom;
            if (auto [name, tag] = label(row.fan, s, i); name != nullptr)
                out += std::string("{") + name + "=\"" + tag + "\"}";
            // Integral counters print without a fraction; measured
            // quantities keep full double precision.
            double value = row.read(s, i);
            if (value == static_cast<double>(static_cast<long>(value)))
                out += " " + std::to_string(static_cast<long>(value)) +
                    "\n";
            else
                out += " " + std::to_string(value) + "\n";
        }
    }
    return out;
}

/** Adds its scope's wall time to a nanosecond counter, also when the
 *  scope unwinds through an exception. */
struct NanosCharge
{
    std::atomic<long> &into;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    ~NanosCharge()
    {
        into.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
};

} // namespace

const EvalService::Endpoint EvalService::kEndpoints[] = {
    {"evaluate", "POST", "/v1/evaluate",
     [](EvalService &svc, const HttpRequest &r) {
         return svc.handleEvaluate(r);
     }},
    {"explore", "POST", "/v1/explore",
     [](EvalService &svc, const HttpRequest &r) {
         return svc.handleExplore(r);
     }},
    {"pareto", "POST", "/v1/pareto",
     [](EvalService &svc, const HttpRequest &r) {
         return svc.handlePareto(r);
     }},
    {"health", "GET", "/v1/health",
     [](EvalService &svc, const HttpRequest &r) {
         return svc.handleHealth(r);
     }},
    {"stats", "GET", "/v1/stats",
     [](EvalService &svc, const HttpRequest &) {
         return jsonResponse(renderStats(svc.stats()));
     }},
    {"metrics", "GET", "/v1/metrics",
     [](EvalService &svc, const HttpRequest &) {
         HttpResponse resp;
         resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
         resp.body = renderMetrics(svc.stats());
         return resp;
     }},
};

EvalService::EvalService(ServiceOptions options)
    : options_(options),
      engine_([&options] {
          EvalEngineOptions eo;
          eo.jobs = options.jobs;
          eo.cacheCapacity = options.cacheCapacity;
          return eo;
      }()),
      configCache_(options.configCacheCapacity),
      dispatcher_(engine_, options.batchWatchdogMillis * 1000),
      breaker_([&options] {
          CircuitBreakerOptions co;
          co.failureThreshold = options.breakerFailureThreshold;
          co.openMillis = options.breakerOpenMillis;
          return co;
      }()),
      start_(std::chrono::steady_clock::now()),
      endpointSlots_(std::size(kEndpoints))
{
    for (size_t i = 0; i < std::size(kEndpoints); ++i) {
        router_.add(kEndpoints[i].method, kEndpoints[i].target,
                    [this, i](const HttpRequest &r) {
                        EndpointSlot &slot = endpointSlots_[i];
                        ++slot.requests;
                        NanosCharge charge{slot.nanos};
                        return kEndpoints[i].handler(*this, r);
                    });
    }
}

HttpResponse
EvalService::handle(const HttpRequest &request)
{
    HttpResponse resp;
    try {
        resp = router_.route(request);
    } catch (...) {
        // One mapping for every exception type the stack can throw
        // (serve/errors.hh): ConfigError -> 400, DeadlineError -> 504,
        // CircuitOpenError -> 503 + Retry-After, bad_alloc -> 503,
        // anything else -> 500.
        resp = errorFromCurrentException();
    }
    if (resp.status >= 400)
        ++errorCount_;
    return resp;
}

RequestCost
EvalService::classify(const HttpRequest &request) const
{
    if (request.method == "GET")
        return RequestCost::Cheap;
    if (request.target == "/v1/evaluate") {
        std::string key;
        if (configCache_.peekKey(request.body, key) &&
            engine_.isCached(key))
            return RequestCost::Cached;
    }
    return RequestCost::Expensive;
}

HttpResponse
EvalService::handleEvaluate(const HttpRequest &request)
{
    // Parse (or reuse the parsed form of) the config triple, then
    // ride whatever evaluation batch forms. Engine memo hits return
    // straight from the dispatcher's fast path.
    CachedRequest parsed = configCache_.lookup(request.body);

    // The breaker key is the canonical triple's fingerprint — the
    // same identity the config cache dedups on — so every body
    // spelling of a poisoned config shares one breaker entry.
    uint64_t breakerKey = parsed.triple->fingerprint;
    long retryAfter = 0;
    if (!breaker_.admit(breakerKey, &retryAfter))
        throw CircuitOpenError(retryAfter);

    MemoEntry memo;
    if (dispatcher_.tryMemo(parsed, memo)) {
        // Failure reports are never memoized, so a hit is a success.
        breaker_.recordSuccess(breakerKey);
        return memoResponse(parsed, memo);
    }

    PerfReport report;
    try {
        report = dispatcher_.evaluate(
            parsed, options_.requestTimeoutMillis * 1000);
    } catch (const DeadlineError &) {
        // A deadline says nothing about the config's health — the
        // breaker records neither success nor failure. A half-open
        // probe that deadlines forfeits its slot via the breaker's
        // probe timeout.
        throw;
    } catch (...) {
        breaker_.recordFailure(breakerKey);
        throw;
    }

    if (report.failed()) {
        ++evalFailures_;
        breaker_.recordFailure(breakerKey);
        switch (report.errorKind) {
        case EvalErrorKind::Config:
            return makeError(ServeError::BadRequest,
                             report.errorMessage);
        case EvalErrorKind::Resource:
            return makeError(ServeError::ResourceExhausted,
                             report.errorMessage);
        default:
            return makeError(ServeError::EvalFailed,
                             report.errorMessage);
        }
    }
    breaker_.recordSuccess(breakerKey);
    return jsonResponse(toJson(report));
}

HttpResponse
EvalService::memoResponse(const CachedRequest &parsed,
                          const MemoEntry &memo)
{
    // Plan guard: the memo key drops strategies for layer classes the
    // model lacks, but the body prints the plan verbatim, so stored
    // bytes answer only the plan they were rendered for.
    if (memo.body && memo.body->plan == parsed.plan) {
        HttpResponse resp;
        resp.body = memo.body->bytes;
        return resp;
    }
    PerfReport report = *memo.report;
    report.plan = parsed.plan;
    HttpResponse resp = jsonResponse(toJson(report));
    // Rendered on a hit, never at insertion: a body is stored only
    // for an entry that has been asked for twice.
    if (!memo.body)
        engine_.attachBody(parsed.engineKey, memo.report,
                           std::make_shared<const RenderedBody>(
                               RenderedBody{parsed.plan, resp.body}));
    return resp;
}

HttpResponse
EvalService::handleExplore(const HttpRequest &request)
{
    JsonValue body = parseTripleBody(request);
    ModelDesc model = loadModel(body.at("model"));
    ClusterSpec cluster = loadCluster(body.at("system"));
    TaskConfig task = loadTask(body.at("task"));

    // The !(in-range) form also rejects NaN; an unchecked cast of an
    // out-of-range double to size_t is undefined behavior.
    double topRaw = body.numberOr("top", 5);
    if (!(topRaw >= 0 && topRaw <= static_cast<double>(1L << 30)))
        fatal("\"top\" must be in [0, 2^30]");
    size_t top = static_cast<size_t>(topRaw);

    PerfModel perf(cluster);
    StrategyExplorer explorer(perf, &engine_);
    ExplorerOptions opts;
    opts.ignoreMemory = body.boolOr("no_memory_limit", false);
    return jsonResponse(
        toJson(explorer.explore(model, task.task, opts), top));
}

HttpResponse
EvalService::handlePareto(const HttpRequest &request)
{
    // A pareto search is too coarse to micro-batch, but concurrent
    // byte-identical queries (a popular dashboard, a retry storm)
    // collapse to one search sharing its response.
    bool shared = false;
    HttpResponse resp = paretoFlight_.run(
        request.body, [&] { return runPareto(request); }, &shared);
    if (shared)
        ++paretoShared_;
    return resp;
}

HttpResponse
EvalService::runPareto(const HttpRequest &request)
{
    JsonValue body = JsonValue::parse(request.body);
    if (!body.isObject())
        fatal("request body must be a JSON object with \"model\" and "
              "\"task\" (or \"workload\") members");
    if (!body.has("model"))
        fatal("request body missing \"model\" member");

    // A "workload" member switches to the serving-placement search
    // (mirrors `madmax pareto --workload` byte-for-byte): phases are
    // derived from the workload, so the task-sweep knobs don't apply.
    if (body.has("workload")) {
        for (const char *other :
             {"task", "catalog", "nodes", "node_counts", "strategy",
              "budget", "seed", "include_baselines"}) {
            if (body.has(other)) {
                fatal(std::string("\"workload\" derives the serving "
                                  "phases itself and searches "
                                  "placements exhaustively; \"") +
                      other +
                      "\" does not apply (supported: \"model\", "
                      "\"system\", \"workload\")");
            }
        }
        if (!body.has("system"))
            fatal("\"workload\" requires \"system\" (the cluster the "
                  "placements are searched over)");
        ModelDesc model = loadModel(body.at("model"));
        ClusterSpec cluster = loadCluster(body.at("system"));
        InferenceWorkload workload = loadWorkload(body.at("workload"));
        InferencePlacementFrontier frontier = exploreInferencePlacements(
            model, workload, cluster, {}, &engine_);
        return jsonResponse(toJson(frontier));
    }

    if (!body.has("task"))
        fatal("request body missing \"task\" member");
    ModelDesc model = loadModel(body.at("model"));
    TaskConfig task = loadTask(body.at("task"));

    // The hardware axis mirrors `madmax pareto`: an inline "system"
    // document (optionally swept over "node_counts"), or a named
    // catalog ("catalog": "cloud" with "nodes" per instance type).
    std::vector<HardwarePoint> hw;
    if (body.has("system")) {
        if (body.has("catalog") || body.has("nodes"))
            fatal("\"system\" and \"catalog\"/\"nodes\" are mutually "
                  "exclusive");
        ClusterSpec cluster = loadCluster(body.at("system"));
        if (body.has("node_counts")) {
            const JsonValue &arr = body.at("node_counts");
            if (!arr.isArray() || arr.size() == 0)
                fatal("\"node_counts\" must be a non-empty array of "
                      "integers");
            std::vector<int> counts;
            for (size_t i = 0; i < arr.size(); ++i) {
                double n = arr.at(i).asDouble();
                if (!(n >= 1 && n <= 65536) ||
                    n != static_cast<long>(n))
                    fatal("\"node_counts\" entries must be integers "
                          "in [1, 65536]");
                counts.push_back(static_cast<int>(n));
            }
            hw = nodeCountSweep(cluster, counts);
        } else {
            hw = {makeHardwarePoint(cluster)};
        }
    } else {
        if (body.has("node_counts"))
            fatal("\"node_counts\" requires \"system\"");
        std::string catalog = body.stringOr("catalog", "cloud");
        if (catalog != "cloud")
            fatal("unknown catalog '" + catalog +
                  "' (supported: cloud)");
        double nodes = body.numberOr("nodes", 16);
        if (!(nodes >= 1 && nodes <= 4096))
            fatal("\"nodes\" must be in [1, 4096]");
        hw = cloudHardwareCatalog(static_cast<int>(nodes));
    }

    ParetoOptions opts;
    opts.strategy = body.stringOr("strategy", "exhaustive");
    double budget = body.numberOr("budget", 0);
    if (!(budget >= 0 && budget <= static_cast<double>(1L << 30)))
        fatal("\"budget\" must be in [0, 2^30]");
    opts.search.maxEvaluations = static_cast<long>(budget);
    double seed = body.numberOr(
        "seed", static_cast<double>(SearchOptions{}.seed));
    if (!(seed >= 0 && seed <= 0x1p63))
        fatal("\"seed\" must be a non-negative integer");
    opts.search.seed = static_cast<uint64_t>(seed);
    opts.includeBaselines = body.boolOr("include_baselines", true);

    ParetoEngine pareto(std::move(hw), &engine_);
    ParetoFrontier frontier = pareto.explore(model, task.task, opts);
    return jsonResponse(toJson(frontier, pareto.hardware()));
}

HttpResponse
EvalService::handleHealth(const HttpRequest &)
{
    JsonValue out;
    out.set("status", "ok");
    out.set("jobs", engine_.jobs());
    out.set("uptime_seconds",
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count());
    return jsonResponse(out);
}

ServiceStats
EvalService::stats() const
{
    ServiceStats s;
    for (size_t i = 0; i < endpointSlots_.size(); ++i)
        s.endpoints.push_back({kEndpoints[i].name,
                               endpointSlots_[i].requests.load(),
                               endpointSlots_[i].nanos.load()});
    s.errors = errorCount_.load();
    s.evalFailures = evalFailures_.load();
    s.paretoCoalesced = paretoShared_.load();
    s.engine = engine_.counters();
    s.jobs = engine_.jobs();
    s.batching = dispatcher_.stats();
    s.configCache = configCache_.stats();
    s.breaker = breaker_.stats();
    s.faults = FaultInjection::stats();
    if (transportStats_)
        s.transport = transportStats_();
    s.uptimeSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    return s;
}

} // namespace madmax
