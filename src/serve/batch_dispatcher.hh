/**
 * @file
 * Cross-request micro-batching for the serving hot path.
 *
 * BatchDispatcher coalesces concurrent /v1/evaluate requests into
 * single EvalEngine::evaluateAll batches by continuous batching: a
 * request that finds the engine idle becomes the batch leader and
 * submits at once, on its own thread, everything queued; requests
 * arriving while a batch is evaluating queue behind it and leave
 * together as the next batch, and followers block until the leader
 * distributes their results. Under sustained load a batch is
 * therefore as long as the evaluation before it, and an idle engine
 * never makes a cold request wait for company. The payoff rides the
 * engine's batch grouping: requests whose configs resolved to the
 * same shared ParsedTriple (serve/config_cache.hh) have
 * pointer-identical (model, desc, task) and therefore share one warm
 * EvalContext within the batch — many tenants, one validation +
 * per-layer timing pass — and in-batch duplicate points collapse to
 * a single evaluation.
 *
 * Requests already memoized in the engine bypass the queue entirely
 * (tryMemo, over EvalEngine::tryCached), so batching adds zero
 * latency to the cached hot path.
 *
 * SingleFlight deduplicates concurrent *identical* requests at the
 * response level — used by /v1/pareto, where a whole search is too
 * coarse to batch but popular identical queries (same body bytes)
 * would otherwise each run the full frontier sweep.
 */

#ifndef MADMAX_SERVE_BATCH_DISPATCHER_HH
#define MADMAX_SERVE_BATCH_DISPATCHER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/perf_model.hh"
#include "serve/config_cache.hh"
#include "serve/http_server.hh"
#include "util/fingerprint.hh"

namespace madmax
{

class EvalEngine;
struct MemoEntry;

struct BatchDispatcherStats
{
    long windows = 0;   ///< Batches submitted to the engine.
    long requests = 0;  ///< Requests that entered the queue (memo
                        ///< misses; hits bypass).
    long coalesced = 0; ///< Requests that shared a batch with >= 1
                        ///< other request.
    long maxOccupancy = 0;  ///< Largest batch submitted.
    long memoFastPath = 0;  ///< Requests answered from the engine memo
                            ///< cache without entering the queue.
    long watchdogTakeovers = 0; ///< Rescue leaders spawned past a
                                ///< wedged one.
    long deadlineTimeouts = 0;  ///< Requests abandoned at their
                                ///< deadline (DeadlineError thrown).
};

class BatchDispatcher
{
  public:
    /**
     * @p watchdogMicros is the wedged-leader watchdog; 0 disables it.
     * When the current leader has been busy longer than this and
     * requests are queued behind it, a waiting request takes over as
     * a rescue leader and submits the queued work as its own batch —
     * a wedged evaluation stalls only the requests already inside its
     * batch, never the ones behind it. Successive takeovers are
     * throttled to one per watchdog period.
     */
    explicit BatchDispatcher(EvalEngine &engine, long watchdogMicros = 0);

    BatchDispatcher(const BatchDispatcher &) = delete;
    BatchDispatcher &operator=(const BatchDispatcher &) = delete;

    /**
     * Memo hot path: no queue, no batch. On an engine memo hit,
     * shares the entry into @p out (EvalEngine::tryCached) and counts
     * memoFastPath. Callers try this before evaluate().
     */
    bool tryMemo(const CachedRequest &request, MemoEntry &out);

    /**
     * Evaluate one resolved request, riding whatever batch forms.
     * Blocking; safe from any number of threads. Does not probe the
     * memo first (that is tryMemo's job); a point memoized meanwhile
     * is still answered from the memo inside the batch.
     *
     * Per-request engine failures come back as failure reports
     * (PerfReport::failed() — see EvalEngine exception isolation);
     * only a catastrophic evaluateAll throw is rethrown to every
     * request of the affected batch.
     *
     * @p deadlineMicros > 0 bounds the wait: past it the request is
     * abandoned (removed from the queue if still there; its batch
     * slot outlives it via shared ownership if not) and DeadlineError
     * is thrown with the partial-work stage. A request that has
     * already become the batch leader runs its batch to completion —
     * the deadline gates waiting, not evaluating.
     */
    PerfReport evaluate(const CachedRequest &request,
                        long deadlineMicros = 0);

    BatchDispatcherStats stats() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One waiting request. Shared ownership: a deadline-abandoned
     *  request's slot must stay writable for the leader that took it
     *  into a batch after the submitter has thrown out. The slot owns
     *  its triple and plan for the same reason — the submitter's
     *  CachedRequest (possibly the triple's last owner) dies with it. */
    struct Pending
    {
        std::shared_ptr<const ParsedTriple> triple;
        ParallelPlan plan;
        PerfReport report;
        std::exception_ptr error;
        bool taken = false; ///< Left the queue inside a batch.
        bool done = false;
    };

    /** Take the current queue as one batch, evaluate it with the lock
     *  dropped, distribute results, notify. Lock held on entry and
     *  exit; the caller's own request is queued, so the batch is
     *  never empty. Used by both the batch leader and watchdog
     *  rescuers (which is why it does not touch leaderBusy_). */
    void runBatch(std::unique_lock<std::mutex> &lock);

    EvalEngine &engine_;
    const long watchdogMicros_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Pending>> queue_;
    bool leaderBusy_ = false; ///< A batch is evaluating.
    Clock::time_point leaderSince_{}; ///< When leaderBusy_ last rose
                                      ///< (or a rescuer took over).
    BatchDispatcherStats stats_;
};

/**
 * Response-level request deduplication: concurrent requests with
 * byte-identical bodies run the handler once and share the response.
 * Purely in-flight — nothing is cached after the leader finishes, so
 * a repeat request a millisecond later runs fresh (persistent reuse
 * is the engine memo cache's job). Hash collisions degrade to
 * not-deduplicating, never to a wrong response.
 */
class SingleFlight
{
  public:
    /** Run @p fn (or wait for an in-flight identical body's run).
     *  @p wasShared, when given, is set true iff this call received
     *  a response computed by another request. Leader exceptions are
     *  rethrown to every sharer. */
    template <typename Fn>
    HttpResponse
    run(const std::string &body, Fn &&fn, bool *wasShared = nullptr)
    {
        uint64_t key = fnv1a(body);
        std::shared_ptr<Entry> entry;
        bool leader = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = inflight_.find(key);
            if (it != inflight_.end()) {
                if (it->second->body != body)
                    entry = nullptr; // Collision: run solo.
                else
                    entry = it->second;
            } else {
                entry = std::make_shared<Entry>();
                entry->body = body;
                inflight_.emplace(key, entry);
                leader = true;
            }
        }
        if (!entry)
            return fn();
        if (leader) {
            try {
                entry->response = fn();
            } catch (...) {
                entry->error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                inflight_.erase(key);
            }
            {
                std::lock_guard<std::mutex> lock(entry->mutex);
                entry->done = true;
            }
            entry->cv.notify_all();
            if (entry->error)
                std::rethrow_exception(entry->error);
            // Copy, not move: followers still read entry->response.
            return entry->response;
        }
        std::unique_lock<std::mutex> lock(entry->mutex);
        entry->cv.wait(lock, [&] { return entry->done; });
        if (wasShared)
            *wasShared = true;
        if (entry->error)
            std::rethrow_exception(entry->error);
        return entry->response;
    }

  private:
    struct Entry
    {
        std::string body;
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        HttpResponse response;
        std::exception_ptr error;
    };

    std::mutex mutex_;
    std::unordered_map<uint64_t, std::shared_ptr<Entry>> inflight_;
};

} // namespace madmax

#endif // MADMAX_SERVE_BATCH_DISPATCHER_HH
