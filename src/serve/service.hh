/**
 * @file
 * The MAD-Max evaluation service: the application logic behind
 * `madmax serve`. One EvalService owns one process-lifetime
 * EvalEngine, so the memo cache and thread pool are shared across
 * every request the server ever answers — repeat evaluations of a
 * popular (model, system, task) triple are cache hits instead of
 * full stream builds, which is what amortizes the >100x-over-
 * profiling speedup across many interactive users.
 *
 * Between the transport and the engine sit two serving-only layers
 * (both new with the epoll transport):
 *
 *  - a fingerprint-keyed parsed-config cache (serve/config_cache.hh):
 *    repeat bodies skip JSON parsing and config validation entirely,
 *    and bodies differing only in whitespace or plan share one
 *    ParsedTriple, whose pointer identity drives engine batch
 *    grouping;
 *  - a micro-batching dispatcher (serve/batch_dispatcher.hh):
 *    cold evaluations submit at once when the engine is idle, and
 *    those that arrive while a batch evaluates coalesce into the next
 *    EvalEngine::evaluateAll batch, so requests sharing a triple
 *    share one warm EvalContext per batch. Engine memo hits bypass
 *    the queue (zero added latency on the cached path), and
 *    concurrent byte-identical /v1/pareto requests collapse to one
 *    search via single-flight deduplication.
 *
 * Endpoints (full reference with examples: docs/serving.md):
 *
 *   POST /v1/evaluate  body {"model": ..., "system": ..., "task": ...}
 *                      -> the exact JSON `madmax_cli evaluate
 *                      --format json` prints for the same triple,
 *                      byte for byte.
 *   POST /v1/explore   same body plus optional "top" (default 5) and
 *                      "no_memory_limit" -> the same schema as
 *                      `madmax_cli explore --format json` (not byte-
 *                      identical: search.wall_seconds is measured).
 *   POST /v1/pareto    body {"model": ..., "task": ...} plus a
 *                      hardware axis ("system" [+ "node_counts"] or
 *                      "catalog"/"nodes") and search knobs
 *                      ("strategy", "budget", "seed") -> the same
 *                      schema as `madmax_cli pareto --format json`:
 *                      the multi-objective frontier over the joint
 *                      (hardware x plan) space (docs/dse.md).
 *   GET  /v1/health    liveness: status, uptime, engine parallelism.
 *   GET  /v1/stats     engine lifetime counters + memo-cache
 *                      occupancy + batching/config-cache/transport
 *                      counters + per-endpoint request counts.
 *   GET  /v1/metrics   the same counters in Prometheus text
 *                      exposition format (text/plain; version=0.0.4).
 *
 * Errors use the uniform {"error": {code, detail?, message}} shape
 * with the machine-readable codes of serve/errors.hh: 400 for
 * malformed JSON / missing fields / bad configs, 404/405 for an
 * unknown endpoint or method, 500 for internal failures, plus the
 * graceful-degradation responses (503 circuit_open /
 * resource_exhausted / fd_exhausted, 504 deadline_exceeded) — full
 * table in docs/serving.md, semantics in docs/resilience.md.
 */

#ifndef MADMAX_SERVE_SERVICE_HH
#define MADMAX_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <vector>

#include "engine/eval_engine.hh"
#include "serve/batch_dispatcher.hh"
#include "serve/circuit_breaker.hh"
#include "serve/config_cache.hh"
#include "serve/http_server.hh"
#include "util/fault_injection.hh"

namespace madmax
{

/** Service construction knobs. */
struct ServiceOptions
{
    /** Engine worker threads; 0 = one per core (the serving default —
     *  unlike the CLI, a resident service wants the whole machine). */
    int jobs = 0;

    /** Memo-cache entry cap, forwarded to EvalEngineOptions. */
    size_t cacheCapacity = size_t{1} << 13;

    /** Parsed-config cache entry cap (serve/config_cache.hh). */
    size_t configCacheCapacity = 1024;

    /** Per-request evaluation deadline, milliseconds; 0 disables.
     *  Past it the request is abandoned (BatchDispatcher::evaluate)
     *  and answered 504 deadline_exceeded with {stage, waited_ms}
     *  partial-work detail. */
    long requestTimeoutMillis = 0;

    /** Circuit breaker: consecutive eval failures per config
     *  fingerprint that trip it (serve/circuit_breaker.hh). */
    int breakerFailureThreshold = 5;

    /** Circuit breaker cool-down before the half-open probe. */
    long breakerOpenMillis = 1000;

    /** Wedged-leader watchdog for the micro-batching dispatcher,
     *  milliseconds; 0 disables (BatchDispatcher's constructor). */
    long batchWatchdogMillis = 2000;
};

/** One routed endpoint's request accounting. */
struct EndpointStats
{
    const char *name = ""; ///< "evaluate", "stats", ...: the /v1/stats
                           ///< key and the endpoint= label.
    long requests = 0;     ///< Requests routed to it.
    long nanos = 0;        ///< Cumulative handler wall time.
};

/**
 * Every counter the service reports, read once: the snapshot that
 * both `GET /v1/stats` and `GET /v1/metrics` render, through one
 * counter table (service.cc), so the two views cannot drift.
 */
struct ServiceStats
{
    std::vector<EndpointStats> endpoints; ///< Routing-table order.
    long errors = 0; ///< Responses with status >= 400 (any endpoint).
    long evalFailures = 0; ///< Evaluate requests whose report came
                           ///< back failed (engine isolation).
    long paretoCoalesced = 0; ///< Pareto single-flight dedups.

    EngineCounters engine;
    int jobs = 0; ///< Engine worker threads.
    BatchDispatcherStats batching;
    ConfigCache::Stats configCache;
    CircuitBreakerStats breaker;
    std::vector<FaultPointStats> faults; ///< Armed points only.
    std::optional<HttpServerStats> transport; ///< When a provider is
                                              ///< wired.
    double uptimeSeconds = 0;
};

class EvalService
{
  public:
    explicit EvalService(ServiceOptions options = {});

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Dispatch one request through kEndpoints. Never throws:
     * ConfigError becomes a 400 response, anything else a 500.
     * Thread-safe; this is the HttpHandler `madmax serve` installs.
     */
    HttpResponse handle(const HttpRequest &request);

    /**
     * Admission-tier classifier for the transport's tiered load
     * shedding (HttpServerOptions::classifier). GETs (health, stats,
     * metrics) are Cheap and never shed; an evaluate whose body is a
     * known parsed-config entry with a warm engine memo key is Cached
     * (shed last); everything else — cold evaluations, explore,
     * pareto — is Expensive (shed first). Fast: one hash + two map
     * probes, no parsing; safe to call on the event loop.
     */
    RequestCost classify(const HttpRequest &request) const;

    /** The shared process-lifetime engine (tests inspect its cache). */
    EvalEngine &engine() { return engine_; }

    /** The serving-side coalescing layers (tests inspect counters). */
    const BatchDispatcher &dispatcher() const { return dispatcher_; }
    const ConfigCache &configCache() const { return configCache_; }
    const CircuitBreaker &breaker() const { return breaker_; }

    /** Snapshot every counter source once (what a scrape renders). */
    ServiceStats stats() const;

    /**
     * Wire the transport's counters into `GET /v1/stats` (as the
     * response's "transport" object) and `GET /v1/metrics` (the
     * madmax_http_* families). Set after constructing the
     * HttpServer — the server wraps the service, so the service
     * cannot reach it at construction time. Transport rejections
     * (400/413/431/503) never reach handle(), so without this they
     * are invisible to the observability endpoints. Not thread-safe:
     * call before start().
     */
    void
    setTransportStatsProvider(std::function<HttpServerStats()> provider)
    {
        transportStats_ = std::move(provider);
    }

  private:
    /** One routed endpoint. kEndpoints (service.cc) is the only list
     *  of them: routing, the per-endpoint counters and both counter
     *  renderings walk it. */
    struct Endpoint
    {
        const char *name; ///< EndpointStats::name.
        const char *method;
        const char *target;
        HttpResponse (*handler)(EvalService &, const HttpRequest &);
    };
    static const Endpoint kEndpoints[];

    /** Live counters behind one EndpointStats. */
    struct EndpointSlot
    {
        std::atomic<long> requests{0};
        std::atomic<long> nanos{0};
    };

    /** The matching endpoint's response (counted and timed in its
     *  slot), 404 not_found for an unknown target, or 405
     *  method_not_allowed naming the target's method. Handler
     *  exceptions propagate to handle(). */
    HttpResponse route(const HttpRequest &request);
    HttpResponse handleEvaluate(const HttpRequest &request);
    /** A memo hit's response: the entry's stored body when it was
     *  rendered for this plan; otherwise rendered now, and stored if
     *  the entry has no body yet. */
    HttpResponse memoResponse(const CachedRequest &parsed,
                              const MemoEntry &memo);
    HttpResponse handleExplore(const HttpRequest &request);
    HttpResponse handlePareto(const HttpRequest &request);
    HttpResponse runPareto(const HttpRequest &request);
    HttpResponse handleHealth(const HttpRequest &request);

    ServiceOptions options_;
    EvalEngine engine_;
    ConfigCache configCache_;
    BatchDispatcher dispatcher_;
    CircuitBreaker breaker_;
    SingleFlight paretoFlight_;
    std::function<HttpServerStats()> transportStats_;
    std::chrono::steady_clock::time_point start_;

    std::vector<EndpointSlot> endpointSlots_; ///< Parallel to
                                              ///< kEndpoints.
    std::atomic<long> errorCount_{0};
    std::atomic<long> evalFailures_{0}; ///< Failed reports mapped to
                                        ///< taxonomy errors.
    std::atomic<long> paretoShared_{0}; ///< Single-flight dedups.
};

} // namespace madmax

#endif // MADMAX_SERVE_SERVICE_HH
