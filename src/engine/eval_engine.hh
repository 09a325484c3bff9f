/**
 * @file
 * Parallel plan-evaluation engine. Every consumer of the performance
 * model — the strategy explorer, the DSE sweeps, the fleet simulator
 * — funnels its (model, task, plan, cluster) points through
 * EvalEngine::evaluateAll, which adds four things on top of raw
 * PerfModel::evaluate calls:
 *
 *  1. a fixed-size FIFO thread pool (--jobs N) that fans the batch
 *     out across cores;
 *  2. a memoization cache keyed by a canonical fingerprint of the
 *     point (MemoKey, core/memo_key.hh: a shared per-triple prefix
 *     and a packed plan code), shared across call sites (e.g. best()
 *     after explore() re-reads every report for free). Each entry
 *     also has a set-once slot for a rendered response body
 *     (RenderedBody), so the serving layer's repeat hits return
 *     stored bytes instead of re-rendering the report;
 *  3. a memory-feasibility pre-pass that prices each plan's footprint
 *     once, through its group's EvalContext, and resolves OOM plans
 *     without splicing or scheduling any streams; a
 *     fitting plan carries that verdict into its evaluation;
 *  4. per-(model, desc, task) batch grouping: each group of a batch
 *     shares one EvalContext (validation, compute times, resolved
 *     collectives — see core/eval_context.hh) and one canonical-key
 *     prefix, so a sweep's hundreds of plans pay the plan-invariant
 *     work once instead of per evaluation (a request's
 *     own PlanRequest::context supplies both for as long as it lives,
 *     and PlanRequest::keyPrefix the prefix). Every memo entry of a
 *     group holds the group's one prefix by handle.
 *
 * Results are returned in request order, so callers are deterministic
 * regardless of thread count.
 */

#ifndef MADMAX_ENGINE_EVAL_ENGINE_HH
#define MADMAX_ENGINE_EVAL_ENGINE_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "config/json.hh"
#include "core/memo_key.hh"
#include "core/perf_model.hh"
#include "util/lru_cache.hh"

namespace madmax
{

class EvalContext;
class ThreadPool;

/**
 * Per-call search-cost instrumentation. Replaces the old static
 * thread-local StrategyExplorer::lastSearchEvaluations() counter:
 * stats are now a value threaded through ExplorationResult /
 * Exploration and the CLI, so they compose across threads and nested
 * calls instead of being clobbered by them.
 */
struct EvalStats
{
    long evaluations = 0; ///< Fresh model evaluations executed.
    long cacheHits = 0;   ///< Requests served from the memo cache.
    long pruned = 0;      ///< OOM plans resolved by the memory pre-pass.
    double wallSeconds = 0.0; ///< Wall-clock time inside the engine.

    /**
     * Evaluations that threw instead of completing (per-request
     * exception isolation — see EvalEngine::evaluateAll). A subset of
     * `evaluations`: a failed request still occupied an evaluation
     * slot. 0 in healthy operation.
     */
    long failed = 0;

    /** Total points requested (evaluations + cacheHits + pruned). */
    long requests() const { return evaluations + cacheHits + pruned; }

    EvalStats &operator+=(const EvalStats &o)
    {
        evaluations += o.evaluations;
        cacheHits += o.cacheHits;
        pruned += o.pruned;
        wallSeconds += o.wallSeconds;
        failed += o.failed;
        return *this;
    }
};

/**
 * Search-cost JSON rendering shared by the CLI's `"search"` object
 * and `/v1/explore`; `/v1/stats` renders the same members (and the
 * zero-`failed` rule) from its counter table in serve/service.cc.
 */
JsonValue toJson(const EvalStats &stats);

/**
 * Cumulative engine-lifetime observability counters, the backing data
 * of the serving API's `GET /v1/stats`. `lifetime` sums the EvalStats
 * of every evaluateAll call since construction; the cache fields
 * describe the memo cache's current occupancy and its total insert /
 * evict traffic (entries == insertions - evictions, always <=
 * capacity).
 */
struct EngineCounters
{
    EvalStats lifetime;
    size_t cacheEntries = 0;
    size_t cacheCapacity = 0;
    long cacheInsertions = 0;
    long cacheEvictions = 0;

    /// Batch-submission shape: how work arrives, not how much. The
    /// serving layer's micro-batching dispatcher shows up here as
    /// fewer, larger batches for the same request count.
    long batches = 0;          ///< evaluateAll calls.
    long batchRequests = 0;    ///< Points submitted across all batches.
    long maxBatchRequests = 0; ///< Largest single batch.
};

/**
 * A memo entry's rendered response body and the plan it was rendered
 * for. Immutable once built. The memo key canonicalizes away
 * strategies for layer classes the model lacks, but a rendered body
 * prints the plan verbatim, so a reader serves @p bytes only to a
 * request whose plan equals @p plan.
 */
struct RenderedBody
{
    ParallelPlan plan;
    std::string bytes;
};

/**
 * One memo-cache value, and what a fast-path probe hands back: the
 * shared, timeline-stripped report and, once some hit has rendered
 * it, the entry's body. Both leave the cache together on eviction or
 * clearCache, so stored bodies are bounded by the cache capacity.
 */
struct MemoEntry
{
    std::shared_ptr<const PerfReport> report;
    std::shared_ptr<const RenderedBody> body; ///< Null until attached.
};

/**
 * One point to evaluate. The pointed-to model/desc/task must outlive
 * the evaluateAll call; requests in one batch may reference different
 * models (the fleet evaluates jobs on per-job clusters this way).
 * Keep model, desc, task and plan the first four members and the
 * struct an aggregate: callers build it as {&perf, &desc, &task, plan}.
 */
struct PlanRequest
{
    const PerfModel *model = nullptr;
    const ModelDesc *desc = nullptr;
    const TaskSpec *task = nullptr;
    ParallelPlan plan;

    /**
     * Optional context built from exactly this request's model, desc,
     * and task (the same objects; must outlive the call). Callers that
     * submit many small batches against one triple — the guided
     * searches — keep one alive across calls, so strategy tables,
     * segment arenas and the memo-key prefix are built once instead of
     * per batch. Null: the engine builds one per (model, desc, task)
     * group of the batch.
     */
    const EvalContext *context = nullptr;

    /**
     * Optional memoKeyPrefix(*model, *desc, *task), held by a caller
     * that keeps the triple resident without a context (the serving
     * layer's ParsedTriple), so the batch builds no prefix and every
     * memo entry of the triple shares this one. Null: the context's
     * prefix, else one built per (model, desc, task) group.
     */
    std::shared_ptr<const MemoKeyPrefix> keyPrefix = nullptr;
};

/** Engine construction knobs. */
struct EvalEngineOptions
{
    /** Worker threads; 1 = serial on the caller, 0 = one per core. */
    int jobs = 1;

    /** Cache entry cap; oldest entries are evicted beyond it. */
    size_t cacheCapacity = 1 << 13;
};

/**
 * Thread-pooled, memoizing batch evaluator. Thread-safe: concurrent
 * evaluateAll calls share the cache under a mutex and the pool's
 * one FIFO queue interleaves their batches.
 */
class EvalEngine
{
  public:
    explicit EvalEngine(EvalEngineOptions options = {});
    ~EvalEngine();

    EvalEngine(const EvalEngine &) = delete;
    EvalEngine &operator=(const EvalEngine &) = delete;

    /** Effective parallelism (1 when running serial). */
    int jobs() const;

    const EvalEngineOptions &options() const { return options_; }

    /**
     * Evaluate a batch. result[i] always corresponds to requests[i];
     * evaluation order across the pool is unspecified but the returned
     * reports are bitwise-identical to a serial run. @p stats, when
     * given, is overwritten with this call's counters.
     *
     * Memory note: for models that retain timelines
     * (PerfModelOptions::keepTimeline), cached copies are stored
     * *without* the scheduled Timeline, so a request served from the
     * cache by a later call carries an empty timeline. Callers that
     * consume timelines (trace export, stream plots) evaluate through
     * PerfModel directly.
     *
     * Exception isolation: a throwing evaluation (ConfigError,
     * std::bad_alloc, a model bug) fails only its own request — the
     * slot comes back as a failure report (PerfReport::failed(), with
     * errorKind/errorMessage set) while the rest of the batch
     * completes normally. Failure reports are never memoized.
     * EvalStats::failed counts them. Only caller-contract violations
     * (null model/desc/task pointers) still throw out of the call.
     */
    std::vector<PerfReport>
    evaluateAll(const std::vector<PlanRequest> &requests,
                EvalStats *stats = nullptr);

    /** Single-point convenience wrapper over evaluateAll. @p stats,
     *  when given, is *accumulated* into (callers tally loops). */
    PerfReport evaluateOne(const PerfModel &model, const ModelDesc &desc,
                           const TaskSpec &task, const ParallelPlan &plan,
                           EvalStats *stats = nullptr);

    /**
     * Canonical memoization key. Two requests collide exactly when
     * the performance model is guaranteed to produce the same report:
     * same cluster + perf-model options fingerprint, same model
     * identity, same task, and plans that agree on every layer class
     * the model actually has (strategies for absent classes are
     * irrelevant and canonicalized away). The prefix is the request's
     * keyPrefix, else its context's, else a fresh memoKeyPrefix.
     */
    static MemoKey memoKey(const PlanRequest &request);

    /** memoKey's text: the prefix text, then each present class's
     *  (intra, inter) digits and "+p" or "-p" for the prefetch flag.
     *  Equal texts are equal keys and vice versa. */
    static std::string cacheKey(const PlanRequest &request);

    /**
     * Fast-path probe by a precomputed key (the serving layer stores
     * keys alongside parsed configs, so its hot path skips both
     * config parsing and key construction). On a hit, shares the
     * entry into @p out — no report copy — and accounts one lifetime
     * cache hit, all under one lock. The shared report is
     * timeline-stripped and carries the plan of whichever request
     * inserted it (keys canonicalize absent-class strategies away).
     * A miss does no accounting — the caller resubmits through
     * evaluateAll, which counts the point there.
     */
    bool tryCached(const MemoKey &key, MemoEntry &out);

    /** tryCached by cacheKey text (split at its last '|'), copying the
     *  report into @p out with @p plan restored, exactly like an
     *  evaluateAll cache hit. Text that is no cacheKey misses. */
    bool tryCached(const std::string &key, const ParallelPlan &plan,
                   PerfReport &out);

    /**
     * Attach @p body to the entry under @p key, if that entry still
     * holds @p report (a hit's MemoEntry::report) and has no body
     * yet. Set-once: a later attach, for any plan, leaves the first
     * body in place. Counts nothing.
     * @return whether @p body was attached.
     */
    bool attachBody(const MemoKey &key,
                    const std::shared_ptr<const PerfReport> &report,
                    std::shared_ptr<const RenderedBody> body);

    /** Accounting-free occupancy probe: admission control asks
     *  "would this request be cheap?" without perturbing LRU order
     *  or the lifetime stats. */
    bool isCached(const MemoKey &key) const;

    void clearCache();

    /** Snapshot of the lifetime stats and cache counters (thread-safe;
     *  the serving layer polls this for `GET /v1/stats` and
     *  `GET /v1/metrics`). */
    EngineCounters counters() const;

  private:
    std::shared_ptr<const PerfReport> cacheGet(const MemoKey &key);

    /** Stores a copy of @p report with its Timeline stripped. */
    void cachePut(const MemoKey &key, PerfReport report);

    EvalEngineOptions options_;
    std::unique_ptr<ThreadPool> pool_; ///< Null when jobs == 1.

    mutable std::mutex cacheMutex_;
    LruCache<MemoKey, MemoEntry, MemoKeyHash> cache_;

    /// Lifetime accounting (guarded by cacheMutex_): every
    /// evaluateAll's EvalStats folded together, plus total cache
    /// insert/evict traffic. clearCache resets neither — they count
    /// work done, not work retained.
    EvalStats lifetime_;
    long insertions_ = 0;
    long evictions_ = 0;
    long batches_ = 0;
    long batchRequests_ = 0;
    long maxBatchRequests_ = 0;
};

} // namespace madmax

#endif // MADMAX_ENGINE_EVAL_ENGINE_HH
