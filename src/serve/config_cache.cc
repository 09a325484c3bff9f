#include "serve/config_cache.hh"

#include "config/config_loader.hh"
#include "engine/eval_engine.hh"
#include "util/fault_injection.hh"
#include "util/fingerprint.hh"
#include "util/logging.hh"

namespace madmax
{

ConfigCache::ConfigCache(size_t capacity)
    : bodies_(capacity), triples_(capacity)
{
    if (capacity < 1)
        fatal("ConfigCache: capacity must be >= 1");
}

CachedRequest
ConfigCache::lookup(const std::string &body)
{
    uint64_t bodyHash = fnv1a(body);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        BodyEntry *entry = bodies_.get(bodyHash);
        if (entry && entry->body == body) {
            ++hits_;
            return {entry->triple, entry->plan, entry->engineKey};
        }
    }

    // Cold body: parse outside the lock, so concurrent cold requests
    // for different configs parse in parallel. Validation errors and
    // messages are identical to the historical uncached path (tests
    // pin them). The fault point sits on the cold path only — a
    // cached body deliberately cannot fault here, mirroring where
    // real parse/alloc failures can occur.
    faultPointThrow("config.load");
    JsonValue doc = JsonValue::parse(body);
    if (!doc.isObject())
        fatal("request body must be a JSON object with \"model\", "
              "\"system\", and \"task\" members");
    for (const char *key : {"model", "system", "task"})
        if (!doc.has(key))
            fatal(std::string("request body missing \"") + key +
                  "\" member");
    ModelDesc model = loadModel(doc.at("model"));
    ClusterSpec cluster = loadCluster(doc.at("system"));
    TaskConfig task = loadTask(doc.at("task"));

    // Canonical triple text: re-dumped parsed JSON (object keys are
    // sorted, whitespace normalized) + the task spec — but not the
    // plan, which is per-request; the whole point is that different
    // plans share the triple and thus an EvalContext group.
    std::string canon = doc.at("model").dump();
    canon += '\x1f';
    canon += doc.at("system").dump();
    canon += '\x1f';
    canon += task.task.toString();
    uint64_t tripleFp = fnv1a(canon);

    std::shared_ptr<const ParsedTriple> triple =
        std::make_shared<ParsedTriple>(std::move(model), task.task,
                                       std::move(cluster),
                                       std::move(canon), tripleFp);

    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    auto *cached = triples_.get(tripleFp);
    if (cached && (*cached)->canon == triple->canon) {
        // Another body already parsed this triple; adopt the cached
        // instance so pointer identity (batch grouping, shared
        // EvalContext) holds across bodies, and drop ours.
        triple = *cached;
        ++tripleShares_;
    } else {
        triples_.put(tripleFp, triple);
    }

    PlanRequest point;
    point.model = &triple->perf;
    point.desc = &triple->model;
    point.task = &triple->task;
    point.plan = task.plan;
    std::string engineKey = EvalEngine::cacheKey(point);

    evictions_ += static_cast<long>(bodies_.put(
        bodyHash, BodyEntry{body, triple, task.plan, engineKey}));
    return {std::move(triple), std::move(task.plan),
            std::move(engineKey)};
}

bool
ConfigCache::peekKey(const std::string &body,
                     std::string &engineKey) const
{
    uint64_t bodyHash = fnv1a(body);
    std::lock_guard<std::mutex> lock(mutex_);
    const BodyEntry *entry = bodies_.peek(bodyHash);
    if (!entry || entry->body != body)
        return false;
    engineKey = entry->engineKey;
    return true;
}

ConfigCache::Stats
ConfigCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.tripleShares = tripleShares_;
    s.entries = bodies_.size();
    s.capacity = bodies_.capacity();
    s.tripleEntries = triples_.size();
    return s;
}

} // namespace madmax
