/**
 * @file
 * Fingerprint-keyed parsed-config cache for the serving hot path.
 * Parsing and validating the (model, system, task) triple out of a
 * request body is a visible fraction of cached-request latency once
 * the evaluation itself is a memo hit — popular triples arrive as
 * byte-identical bodies thousands of times, and re-parsing them is
 * pure waste.
 *
 * Two levels, both LRU and both collision-proof (the FNV-1a hash
 * buckets, an exact compare of the stored original confirms):
 *
 *  1. body cache: request-body bytes -> fully parsed request
 *     (shared ParsedTriple + plan + precomputed engine memo key).
 *     A hit skips JSON parsing, config validation, PerfModel
 *     construction, and engine-key construction. The key holds the
 *     triple's memo-key prefix by handle, built once per triple, so
 *     every body and memo entry of a triple shares that one prefix.
 *  2. triple cache: canonical (model, system, task-spec) text ->
 *     shared ParsedTriple. Bodies that differ only in whitespace or
 *     plan still share one ParsedTriple — and because EvalEngine
 *     batch-groups by pointer identity, every request referencing a
 *     shared triple lands in the same EvalContext group of a
 *     coalesced batch (see serve/batch_dispatcher.hh). A body miss
 *     resolves triple first: it parses the body and loads only the
 *     task, which completes the canonical text; a cached triple then
 *     stands in for loadModel and loadCluster, pure functions of the
 *     JSON that text dumps. An unknown triple, or a task that fails
 *     to load, loads model, system and task in that order, so the
 *     first error reported does not depend on what is cached.
 *
 * Thread-safe. Entries are shared_ptr, so eviction never invalidates
 * a request mid-flight.
 */

#ifndef MADMAX_SERVE_CONFIG_CACHE_HH
#define MADMAX_SERVE_CONFIG_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/memo_key.hh"
#include "core/perf_model.hh"
#include "parallel/strategy.hh"
#include "task/task.hh"
#include "util/lru_cache.hh"

namespace madmax
{

/**
 * One parsed, validated (model, system, task) triple. Immutable once
 * cached; shared by every request whose configs canonicalize to the
 * same text. The members' addresses are the engine's batch-grouping
 * identity, so they must stay stable — hence shared_ptr ownership
 * and no copying.
 */
struct ParsedTriple
{
    ModelDesc model;
    TaskSpec task;
    PerfModel perf;
    std::string canon; ///< Canonical text the fingerprint was taken
                       ///< over (exact-compare collision guard).
    uint64_t fingerprint; ///< fnv1a(canon): the triple-cache key, and
                          ///< the service's circuit-breaker key.
    /** memoKeyPrefix(perf, model, task): the head of every engine
     *  key of this triple (CachedRequest::engineKey). */
    std::shared_ptr<const MemoKeyPrefix> keyPrefix;

    ParsedTriple(ModelDesc m, TaskSpec t, ClusterSpec cluster,
                 std::string canonText, uint64_t fp);

    ParsedTriple(const ParsedTriple &) = delete;
    ParsedTriple &operator=(const ParsedTriple &) = delete;
};

/** A request body resolved to evaluable form. */
struct CachedRequest
{
    std::shared_ptr<const ParsedTriple> triple;
    ParallelPlan plan;
    MemoKey engineKey; ///< EvalEngine::memoKey for (triple, plan).
};

class ConfigCache
{
  public:
    /** @p capacity bounds the body cache; the triple cache holds at
     *  most the same number of entries. */
    explicit ConfigCache(size_t capacity);

    /**
     * Resolve an evaluate-request body: cache hit or parse-and-insert.
     * @throws ConfigError on malformed bodies (same messages as the
     * uncached parse path — a cached body was valid by construction).
     */
    CachedRequest lookup(const std::string &body);

    /**
     * Accounting-free probe: the precomputed engine key for @p body
     * if its parse is cached. Fast enough for the transport's
     * admission classifier (one hash + one map find on the event
     * loop); never parses.
     */
    bool peekKey(const std::string &body, MemoKey &engineKey) const;

    struct Stats
    {
        long hits = 0;
        long misses = 0;       ///< Bodies that had to be parsed.
        long evictions = 0;    ///< Body entries evicted.
        long tripleShares = 0; ///< Parses that reused a cached triple.
        size_t entries = 0;
        size_t capacity = 0;
        size_t tripleEntries = 0;
    };
    Stats stats() const;

  private:
    struct BodyEntry
    {
        std::string body; ///< Original bytes (collision guard).
        std::shared_ptr<const ParsedTriple> triple;
        ParallelPlan plan;
        MemoKey engineKey;
    };

    mutable std::mutex mutex_;
    LruCache<uint64_t, BodyEntry> bodies_;
    LruCache<uint64_t, std::shared_ptr<const ParsedTriple>> triples_;
    long hits_ = 0;
    long misses_ = 0;
    long evictions_ = 0;
    long tripleShares_ = 0;
};

} // namespace madmax

#endif // MADMAX_SERVE_CONFIG_CACHE_HH
