#include "engine/eval_engine.hh"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/eval_context.hh"
#include "hw/topology.hh"
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

/** Append @p v as 16 lowercase hex digits, most significant first. */
void
appendHex(std::string &out, uint64_t v)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    char buf[16];
    for (int i = 15; i >= 0; --i, v >>= 4)
        buf[i] = kDigits[v & 0xf];
    out.append(buf, sizeof(buf));
}

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
appendDouble(std::string &out, double v)
{
    // The fixed-width bit pattern: equal text means bit-identical
    // values, so two clusters that differ in the last ulp of a
    // bandwidth never share cache entries. Fixed width needs no
    // separator, and hex never contains the ',' or '|' the key's
    // other fields and its prefix/suffix cut use.
    appendHex(out, bitsOf(v));
}

/** The splitmix64 finalizer: every input bit flips about half of the
 *  output bits. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
appendCluster(std::string &out, const ClusterSpec &c)
{
    out += c.name;
    out += ',';
    out += std::to_string(c.devicesPerNode) + ',' +
        std::to_string(c.numNodes) + ',';
    out += std::to_string(static_cast<int>(c.intraFabric)) + ',' +
        std::to_string(static_cast<int>(c.interFabric)) + ',';
    appendDouble(out, c.util.compute);
    appendDouble(out, c.util.hbm);
    appendDouble(out, c.util.intraLink);
    appendDouble(out, c.util.interLink);
    const DeviceSpec &d = c.device;
    out += d.name;
    out += ',';
    appendDouble(out, d.peakFlopsTensor16);
    appendDouble(out, d.peakFlopsTf32);
    appendDouble(out, d.peakFlopsFp32);
    appendDouble(out, d.hbmCapacity);
    appendDouble(out, d.hbmBandwidth);
    appendDouble(out, d.intraNodeBandwidth);
    appendDouble(out, d.interNodeBandwidth);
    // Topology-carrying clusters price on their own tier stack; the
    // spec fingerprint keeps them from sharing entries with the flat
    // shape (or with a differently-tiered topology).
    if (c.topology) {
        out += 'T';
        appendHex(out, c.topology->fingerprint());
    } else {
        out += '-';
    }
}

void
appendOptions(std::string &out, const PerfModelOptions &o)
{
    out += o.ignoreMemory ? '1' : '0';
    out += o.backgroundCommChannel ? '1' : '0';
    out += o.keepTimeline ? '1' : '0';
    out += std::to_string(static_cast<int>(o.allReduceAlgorithm));
    out += ',';
    appendDouble(out, o.latency.intraAlpha);
    appendDouble(out, o.latency.interAlpha);
    appendDouble(out, o.memory.reserveFraction);
    out += o.memory.checkpointActivations ? '1' : '0';
    if (o.smModel) {
        appendDouble(out, o.smModel->maxUtil());
        appendDouble(out, o.smModel->halfSaturationFlops());
    } else {
        out += '-';
    }
}

void
appendModel(std::string &out, const ModelDesc &m)
{
    out += m.name;
    out += ',';
    out += std::to_string(m.globalBatchSize) + ',' +
        std::to_string(m.contextLength) + ',';
    out += std::to_string(static_cast<int>(m.computeDtype)) + ',' +
        std::to_string(static_cast<int>(m.paramDtype)) + ',';
    out += m.isRecommendation ? '1' : '0';
    out += std::to_string(m.graph.numLayers()) + ',';
    // Same-name models can differ per layer (custom JSON configs that
    // redistribute width); fold every layer's class and cost into a
    // 64-bit digest so such models never share a cache entry, one
    // full-avalanche step per 64-bit field.
    uint64_t h = 0;
    auto fold = [&h](uint64_t v) {
        h = mix64(h + 0x9e3779b97f4a7c15ull + v);
    };
    // Every per-layer, per-sample quantity the performance and memory
    // models read: compute, lookup traffic, output/TP communication
    // volume, and retained activations. Layers that trade width for
    // depth can match on params + FLOPs alone, so those two are not
    // enough.
    const double dtype_bytes = m.activationBytes();
    for (int i = 0; i < m.graph.numLayers(); ++i) {
        const Layer &layer = m.graph.layer(i);
        fold(static_cast<uint64_t>(layer.kind()));
        fold(static_cast<uint64_t>(layer.layerClass()));
        fold(bitsOf(layer.paramCount()));
        fold(bitsOf(layer.forwardFlopsPerSample()));
        fold(bitsOf(layer.lookupBytesPerSample()));
        fold(bitsOf(layer.outputBytesPerSample(dtype_bytes)));
        fold(bitsOf(layer.tpCommBytesPerSample(dtype_bytes)));
        fold(bitsOf(layer.activationMemoryBytesPerSample(dtype_bytes)));
    }
    appendHex(out, h);
}

/**
 * The (cluster, options, model, task) portion of the canonical key —
 * identical for every request of one batch group, so evaluateAll
 * computes it once per group instead of re-serializing the cluster
 * and model graph for every plan.
 */
std::string
keyPrefix(const PerfModel &model, const ModelDesc &desc,
          const TaskSpec &task)
{
    std::string key;
    key.reserve(256);
    appendCluster(key, model.cluster());
    key += '|';
    appendOptions(key, model.options());
    key += '|';
    appendModel(key, desc);
    key += '|';
    key += task.toString();
    key += '|';
    return key;
}

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

/** The per-plan portion of the canonical key (see cacheKey). */
std::string
keySuffix(const ModelDesc &desc, const ParallelPlan &plan)
{
    // Canonical plan: only classes the model has contribute to the
    // report, so only they contribute to the key. strategyFor folds
    // per-class defaults in, making explicit-default and absent
    // entries collide (deliberately). Each present class writes its
    // (intra, inter) pair as two fixed digits; the prefix pins the
    // class set, so the suffix needs no separators.
    std::string key;
    for (LayerClass cls : kAllClasses) {
        if (!desc.graph.hasClass(cls))
            continue;
        const HierStrategy hs = plan.strategyFor(cls);
        key += static_cast<char>('0' + static_cast<int>(hs.intra));
        key += static_cast<char>('0' + static_cast<int>(hs.inter));
    }
    key += plan.fsdpPrefetch ? "+p" : "-p";
    return key;
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

std::string
EvalEngine::cacheKey(const PlanRequest &request)
{
    if (!request.model || !request.desc || !request.task)
        fatal("EvalEngine: PlanRequest with null model/desc/task");
    return keyPrefix(*request.model, *request.desc, *request.task) +
        keySuffix(*request.desc, request.plan);
}

std::shared_ptr<const PerfReport>
EvalEngine::cacheGet(const std::string &key)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    const MemoEntry *hit = cache_.get(key);
    return hit ? hit->report : nullptr;
}

void
EvalEngine::cachePut(const std::string &key, PerfReport report)
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
EvalEngine::tryCached(const std::string &key, MemoEntry &out)
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
    MemoEntry hit;
    if (!tryCached(key, hit))
        return false;
    out = *hit.report;
    out.plan = plan; // Keys canonicalize absent-class strategies away.
    return true;
}

bool
EvalEngine::attachBody(const std::string &key,
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
EvalEngine::isCached(const std::string &key) const
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
    // EvalContext (validation, per-layer compute times, resolved
    // collectives) and one canonical key prefix serve every plan of a
    // group — a sweep's hundreds of plans share a single context
    // construction instead of paying it per evaluation.
    struct Group
    {
        const PerfModel *model;
        const ModelDesc *desc;
        const TaskSpec *task;
        std::string prefix;               ///< Built on first key need.
        bool prefixBuilt = false;
        const EvalContext *ctx = nullptr; ///< Set on first evaluation.
        std::unique_ptr<EvalContext> owned; ///< ctx when engine-built.
    };
    struct TripleHash
    {
        size_t operator()(const std::tuple<const void *, const void *,
                                           const void *> &t) const
        {
            auto mix = [](size_t h, const void *p) {
                return h * 1099511628211ull ^
                    reinterpret_cast<size_t>(p);
            };
            size_t h = 1469598103934665603ull;
            h = mix(h, std::get<0>(t));
            h = mix(h, std::get<1>(t));
            return mix(h, std::get<2>(t));
        }
    };
    std::vector<Group> groups;
    std::unordered_map<std::tuple<const void *, const void *,
                                  const void *>,
                       size_t, TripleHash>
        groupIndex;
    auto groupOf = [&](const PlanRequest &req) -> Group & {
        auto key = std::make_tuple(
            static_cast<const void *>(req.model),
            static_cast<const void *>(req.desc),
            static_cast<const void *>(req.task));
        auto [it, inserted] = groupIndex.emplace(key, groups.size());
        if (inserted)
            groups.push_back(Group{req.model, req.desc, req.task, {},
                                   false, nullptr, nullptr});
        return groups[it->second];
    };

    // Serial pre-pass: resolve each request to a cache hit, a pruned
    // OOM verdict, or a slot in the parallel batch. Duplicate keys
    // within the batch collapse onto one evaluation.
    struct Pending
    {
        size_t firstIdx;          ///< Owns the evaluation.
        std::vector<size_t> dups; ///< Served from firstIdx's report.
        std::string key;
        const EvalContext *ctx; ///< The group's context.
        /** results[firstIdx] holds the pre-pass's memory verdict. */
        bool priced;
    };
    std::vector<Pending> pending;
    std::unordered_map<std::string, size_t> keyToPending;
    std::vector<std::string> keys(requests.size());

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
        if (options_.memoize) {
            if (!group.prefixBuilt) {
                group.prefix =
                    keyPrefix(*req.model, *req.desc, *req.task);
                group.prefixBuilt = true;
            }
            keys[i] = group.prefix + keySuffix(*req.desc, req.plan);
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
                    if (options_.memoize)
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
        if (options_.memoize)
            keyToPending.emplace(keys[i], pending.size());
        pending.push_back(Pending{i, {}, keys[i], group.ctx, priced});
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
        if (options_.memoize && !bad)
            cachePut(p.key, results[p.firstIdx]);
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
