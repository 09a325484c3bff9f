#include "engine/eval_engine.hh"

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/eval_context.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace madmax
{

namespace
{

/** All layer classes, in canonical key order. */
constexpr LayerClass kAllClasses[] = {
    LayerClass::SparseEmbedding, LayerClass::DenseEmbedding,
    LayerClass::BaseDense, LayerClass::Transformer, LayerClass::MoE};

/**
 * Identity-only report for a request whose evaluation threw. Carries
 * the error pair instead of timings; never cached (the failure may be
 * transient — an allocation failure or injected fault must not poison
 * the memo cache for the plan's lifetime).
 */
PerfReport
failureReport(const PlanRequest &req, EvalErrorKind kind,
              std::string message)
{
    PerfReport r;
    r.modelName = req.desc->name;
    r.clusterName = req.model->cluster().name;
    r.taskName = req.task->toString();
    r.plan = req.plan;
    r.errorKind = kind;
    r.errorMessage = std::move(message);
    return r;
}

/** Map the in-flight exception to a failure report for @p req. */
PerfReport
failureFromCurrentException(const PlanRequest &req)
{
    try {
        throw;
    } catch (const std::bad_alloc &) {
        return failureReport(req, EvalErrorKind::Resource,
                             "allocation failed during plan evaluation");
    } catch (const ConfigError &e) {
        return failureReport(req, EvalErrorKind::Config, e.what());
    } catch (const std::exception &e) {
        return failureReport(req, EvalErrorKind::Internal, e.what());
    } catch (...) {
        return failureReport(req, EvalErrorKind::Internal,
                             "unknown error during plan evaluation");
    }
}

/**
 * The per-plan half of a memo key. Canonical plan: only classes the
 * model has contribute to the report, so only they contribute to the
 * key. strategyFor folds per-class defaults in, making explicit-default
 * and absent entries collide (deliberately). Each present class packs
 * its (intra, inter) pair as two 4-bit digits, then the prefetch flag
 * takes the low bit. The prefix pins the class set, so the code needs
 * no separators; its leading 1 bit marks where the digits start, so
 * appendPlanText can read them back.
 */
uint64_t
planCode(const ModelDesc &desc, const ParallelPlan &plan)
{
    static_assert(static_cast<int>(Strategy::MP) < 10,
                  "a strategy's text is one decimal digit");
    static_assert(1 + 8 * kNumLayerClasses + 1 <= 64,
                  "a plan code fits 64 bits");
    uint64_t code = 1;
    for (LayerClass cls : kAllClasses) {
        if (!desc.graph.hasClass(cls))
            continue;
        const HierStrategy hs = plan.strategyFor(cls);
        code = code << 8 | static_cast<uint64_t>(hs.intra) << 4 |
            static_cast<uint64_t>(hs.inter);
    }
    return code << 1 | (plan.fsdpPrefetch ? 1 : 0);
}

/** Append @p code's text: one character per digit, then "+p" or
 *  "-p" for the prefetch flag. */
void
appendPlanText(std::string &out, uint64_t code)
{
    const uint64_t digits = code >> 1;
    int shift = 0;
    while (digits >> (shift + 4))
        shift += 4;
    for (shift -= 4; shift >= 0; shift -= 4)
        out += static_cast<char>('0' + ((digits >> shift) & 0xf));
    out += (code & 1) ? "+p" : "-p";
}

/** The code appendPlanText writes @p text for; false unless it is
 *  some code's text. */
bool
parsePlanText(const char *text, size_t size, uint64_t &code)
{
    if (size < 2 || size > 2 + 2 * kNumLayerClasses ||
        (text[size - 2] != '+' && text[size - 2] != '-') ||
        text[size - 1] != 'p')
        return false;
    code = 1;
    for (size_t i = 0; i + 2 < size; ++i) {
        if (text[i] < '0' || text[i] > '9')
            return false;
        code = code << 4 | static_cast<uint64_t>(text[i] - '0');
    }
    code = code << 1 | (text[size - 2] == '+' ? 1 : 0);
    return true;
}

} // namespace

EvalEngine::EvalEngine(EvalEngineOptions options)
    : options_(options), cache_(options.cacheCapacity)
{
    if (options_.jobs < 0)
        fatal("EvalEngine: jobs must be >= 0");
    if (options_.jobs == 0)
        options_.jobs = ThreadPool::defaultConcurrency();
    if (options_.jobs > 1)
        pool_ = std::make_unique<ThreadPool>(options_.jobs);
}

EvalEngine::~EvalEngine() = default;

int
EvalEngine::jobs() const
{
    return options_.jobs;
}

MemoKey
EvalEngine::memoKey(const PlanRequest &request)
{
    if (!request.model || !request.desc || !request.task)
        fatal("EvalEngine: PlanRequest with null model/desc/task");
    MemoKey key{request.keyPrefix, planCode(*request.desc, request.plan)};
    if (!key.prefix)
        key.prefix = request.context
            ? request.context->memoPrefix()
            : memoKeyPrefix(*request.model, *request.desc, *request.task);
    return key;
}

std::string
EvalEngine::cacheKey(const PlanRequest &request)
{
    const MemoKey key = memoKey(request);
    std::string text = key.prefix->text;
    appendPlanText(text, key.plan);
    return text;
}

std::shared_ptr<const PerfReport>
EvalEngine::cacheGet(const MemoKey &key)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    const MemoEntry *hit = cache_.get(key);
    return hit ? hit->report : nullptr;
}

void
EvalEngine::cachePut(const MemoKey &key, PerfReport report)
{
    // Only models that opt into timelines carry one; the cache never
    // stores it (~100 KB for a GPT-3 plan). See the class comment.
    report.timeline = Timeline{};
    auto stored = std::make_shared<const PerfReport>(std::move(report));

    std::lock_guard<std::mutex> lock(cacheMutex_);
    // Another thread raced us to the same point: keep theirs (the
    // reports are identical by construction).
    if (cache_.peek(key))
        return;
    evictions_ += static_cast<long>(
        cache_.put(key, MemoEntry{std::move(stored), nullptr}));
    ++insertions_;
}

bool
EvalEngine::tryCached(const MemoKey &key, MemoEntry &out)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    const MemoEntry *hit = cache_.get(key);
    if (!hit)
        return false;
    out = *hit;
    ++lifetime_.cacheHits;
    return true;
}

bool
EvalEngine::tryCached(const std::string &key, const ParallelPlan &plan,
                      PerfReport &out)
{
    const size_t cut = key.rfind('|');
    MemoKey memo;
    if (cut == std::string::npos ||
        !parsePlanText(key.data() + cut + 1, key.size() - cut - 1,
                       memo.plan))
        return false;
    memo.prefix =
        std::make_shared<const MemoKeyPrefix>(key.substr(0, cut + 1));
    MemoEntry hit;
    if (!tryCached(memo, hit))
        return false;
    out = *hit.report;
    out.plan = plan; // Keys canonicalize absent-class strategies away.
    return true;
}

bool
EvalEngine::attachBody(const MemoKey &key,
                       const std::shared_ptr<const PerfReport> &report,
                       std::shared_ptr<const RenderedBody> body)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    MemoEntry *entry = cache_.get(key);
    // If the entry was evicted (and maybe re-inserted) since the hit,
    // the body was rendered from a report the cache no longer holds:
    // drop it, so a body never outlives its report.
    if (!entry || entry->report != report || entry->body)
        return false;
    entry->body = std::move(body);
    return true;
}

bool
EvalEngine::isCached(const MemoKey &key) const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_.peek(key) != nullptr;
}

void
EvalEngine::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    // Count cleared entries as evictions so the documented
    // EngineCounters invariant (entries == insertions - evictions)
    // survives an explicit clear.
    evictions_ += static_cast<long>(cache_.size());
    cache_.clear();
}

EngineCounters
EvalEngine::counters() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    EngineCounters c;
    c.lifetime = lifetime_;
    c.cacheEntries = cache_.size();
    c.cacheCapacity = options_.cacheCapacity;
    c.cacheInsertions = insertions_;
    c.cacheEvictions = evictions_;
    c.batches = batches_;
    c.batchRequests = batchRequests_;
    c.maxBatchRequests = maxBatchRequests_;
    return c;
}

std::vector<PerfReport>
EvalEngine::evaluateAll(const std::vector<PlanRequest> &requests,
                        EvalStats *stats)
{
    auto t0 = std::chrono::steady_clock::now();
    EvalStats local;
    std::vector<PerfReport> results(requests.size());

    // Group requests by their (model, desc, task) triple: one
    // EvalContext (validation, compute times, resolved collectives)
    // serves every plan of a group — a sweep's hundreds of plans
    // share a single context construction instead of paying it per
    // evaluation. A request that carries a key prefix or a
    // context keys by that prefix, built once for its lifetime; the
    // rest of a group share one prefix built for this call.
    struct Group
    {
        const EvalContext *ctx = nullptr; ///< Set on first evaluation.
        std::unique_ptr<EvalContext> owned; ///< ctx when engine-built.
        /** Key prefix of requests that carry none; built on need. */
        std::shared_ptr<const MemoKeyPrefix> prefix;
    };
    std::vector<Group> groups;
    std::map<std::array<uintptr_t, 3>, size_t> groupIndex; ///< By address.
    auto groupOf = [&](const PlanRequest &req) -> Group & {
        auto addr = [](const void *p) {
            return reinterpret_cast<uintptr_t>(p);
        };
        auto [it, inserted] = groupIndex.try_emplace(
            {addr(req.model), addr(req.desc), addr(req.task)}, groups.size());
        if (inserted)
            groups.emplace_back();
        return groups[it->second];
    };

    // Serial pre-pass: resolve each request to a cache hit, a pruned
    // OOM verdict, or a slot in the parallel batch. Duplicate keys
    // within the batch collapse onto one evaluation.
    struct Pending
    {
        size_t firstIdx;          ///< Owns the evaluation.
        std::vector<size_t> dups; ///< Served from firstIdx's report.
        const EvalContext *ctx; ///< The group's context.
        /** results[firstIdx] holds the pre-pass's memory verdict. */
        bool priced;
    };
    std::vector<Pending> pending;
    std::unordered_map<MemoKey, size_t, MemoKeyHash> keyToPending;
    std::vector<MemoKey> keys(requests.size());

    for (size_t i = 0; i < requests.size(); ++i) {
        const PlanRequest &req = requests[i];
        if (!req.model || !req.desc || !req.task)
            fatal("EvalEngine: PlanRequest with null model/desc/task");
        if (req.context && (&req.context->model() != req.model ||
                            &req.context->desc() != req.desc ||
                            &req.context->task() != req.task))
            fatal("EvalEngine: PlanRequest context was built for another "
                  "model/desc/task");
        Group &group = groupOf(req);
        if (req.keyPrefix) {
            keys[i].prefix = req.keyPrefix;
        } else if (req.context) {
            keys[i].prefix = req.context->memoPrefix();
        } else {
            if (!group.prefix)
                group.prefix =
                    memoKeyPrefix(*req.model, *req.desc, *req.task);
            keys[i].prefix = group.prefix;
        }
        keys[i].plan = planCode(*req.desc, req.plan);
        if (auto hit = cacheGet(keys[i])) {
            ++local.cacheHits;
            results[i] = *hit;
            results[i].plan = req.plan;
            continue;
        }
        auto it = keyToPending.find(keys[i]);
        if (it != keyToPending.end()) {
            ++local.cacheHits;
            pending[it->second].dups.push_back(i);
            continue;
        }
        // Per-request isolation starts here: context construction and
        // the memory verdict evaluate the request's own input, so a
        // throw (or an injected fault) fails this slot only instead of
        // propagating out of the batch.
        bool priced = false;
        try {
            if (!group.ctx && req.context) {
                group.ctx = req.context;
            } else if (!group.ctx) {
                group.owned = std::make_unique<EvalContext>(
                    *req.model, *req.desc, *req.task);
                group.ctx = group.owned.get();
            }
            if (!req.model->options().ignoreMemory) {
                results[i] = group.ctx->verdict(req.plan);
                if (!results[i].valid) {
                    ++local.pruned;
                    // Cache the verdict-only report: later duplicates
                    // (same batch or later calls) hit cacheGet above.
                    cachePut(keys[i], results[i]);
                    continue;
                }
                // Feasible: the verdict waits in its result slot for
                // the full evaluation, so the footprint is priced once.
                priced = true;
            }
        } catch (...) {
            ++local.evaluations;
            ++local.failed;
            results[i] = failureFromCurrentException(req);
            continue;
        }
        ++local.evaluations;
        keyToPending.emplace(keys[i], pending.size());
        pending.push_back(Pending{i, {}, group.ctx, priced});
    }

    auto evaluateAt = [&](size_t p) {
        const Pending &slot = pending[p];
        PerfReport &result = results[slot.firstIdx];
        const PlanRequest &req = requests[slot.firstIdx];
        try {
            faultPointThrow("engine.eval");
            result = slot.priced
                ? slot.ctx->evaluate(req.plan, std::move(result))
                : slot.ctx->evaluate(req.plan);
        } catch (...) {
            // One throwing evaluation (bad_alloc, a model bug, an
            // injected fault) fails its own slot only — the rest of
            // the batch completes, and a micro-batched server keeps
            // its other riders.
            result = failureFromCurrentException(req);
        }
    };
    if (pool_ && pending.size() > 1) {
        pool_->parallelFor(pending.size(), evaluateAt);
    } else {
        for (size_t p = 0; p < pending.size(); ++p)
            evaluateAt(p);
    }

    for (const Pending &p : pending) {
        const bool bad = results[p.firstIdx].failed();
        if (bad)
            ++local.failed;
        // Failed reports are never cached: the failure may be
        // transient and must not poison the memo for the plan's
        // lifetime.
        if (!bad)
            cachePut(keys[p.firstIdx], results[p.firstIdx]);
        for (size_t dup : p.dups) {
            results[dup] = results[p.firstIdx];
            results[dup].plan = requests[dup].plan;
        }
    }
    local.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        lifetime_ += local;
        ++batches_;
        batchRequests_ += static_cast<long>(requests.size());
        maxBatchRequests_ = std::max(
            maxBatchRequests_, static_cast<long>(requests.size()));
    }
    if (stats)
        *stats = local;
    return results;
}

JsonValue
toJson(const EvalStats &stats)
{
    JsonValue out;
    out.set("evaluations", stats.evaluations);
    out.set("cache_hits", stats.cacheHits);
    out.set("pruned", stats.pruned);
    out.set("wall_seconds", stats.wallSeconds);
    // Only chaos makes this nonzero; healthy consumers keep the
    // four-field schema (goldens embed it).
    if (stats.failed != 0)
        out.set("failed", stats.failed);
    return out;
}

PerfReport
EvalEngine::evaluateOne(const PerfModel &model, const ModelDesc &desc,
                        const TaskSpec &task, const ParallelPlan &plan,
                        EvalStats *stats)
{
    std::vector<PlanRequest> reqs(1);
    reqs[0].model = &model;
    reqs[0].desc = &desc;
    reqs[0].task = &task;
    reqs[0].plan = plan;
    EvalStats local;
    std::vector<PerfReport> out = evaluateAll(reqs, &local);
    if (stats)
        *stats += local;
    return std::move(out[0]);
}

} // namespace madmax
