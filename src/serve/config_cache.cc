#include "serve/config_cache.hh"

#include <exception>
#include <optional>

#include "config/config_loader.hh"
#include "core/eval_context.hh"
#include "engine/eval_engine.hh"
#include "util/fault_injection.hh"
#include "util/fingerprint.hh"
#include "util/logging.hh"

namespace madmax
{

ParsedTriple::ParsedTriple(ModelDesc m, TaskSpec t, ClusterSpec cluster,
                           std::string canonText, uint64_t fp)
    : model(std::move(m)), task(t), perf(std::move(cluster)),
      canon(std::move(canonText)), fingerprint(fp),
      keyPrefix(memoKeyPrefix(perf, model, task))
{
}

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

    // Triple first: the task completes the canonical text, and a
    // cached triple with that text already holds this body's model and
    // cluster (both loaders are pure functions of the JSON the text
    // dumps), so a known triple skips loadModel and loadCluster.
    std::optional<TaskConfig> task;
    std::exception_ptr taskError;
    try {
        task = loadTask(doc.at("task"));
    } catch (...) {
        taskError = std::current_exception();
    }

    // Canonical triple text: re-dumped parsed JSON (object keys are
    // sorted, whitespace normalized) + the task spec — but not the
    // plan, which is per-request; the whole point is that different
    // plans share the triple and thus an EvalContext group.
    std::string canon;
    uint64_t tripleFp = 0;
    std::shared_ptr<const ParsedTriple> triple;
    if (task) {
        canon = doc.at("model").dump();
        canon += '\x1f';
        canon += doc.at("system").dump();
        canon += '\x1f';
        canon += task->task.toString();
        tripleFp = fnv1a(canon);
        std::lock_guard<std::mutex> lock(mutex_);
        auto *cached = triples_.get(tripleFp);
        if (cached && (*cached)->canon == canon)
            triple = *cached;
    }

    bool shared = triple != nullptr;
    if (!shared) {
        // Unknown triple, or a bad task: load in the historical order
        // (model, system, task), so the first error reported is the
        // same as it always was.
        ModelDesc model = loadModel(doc.at("model"));
        ClusterSpec cluster = loadCluster(doc.at("system"));
        if (taskError)
            std::rethrow_exception(taskError);
        triple = std::make_shared<ParsedTriple>(
            std::move(model), task->task, std::move(cluster),
            std::move(canon), tripleFp);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    if (!shared) {
        auto *cached = triples_.get(tripleFp);
        if (cached && (*cached)->canon == triple->canon) {
            // Another body parsed this triple since the probe; adopt
            // the cached instance so pointer identity (batch grouping,
            // shared EvalContext) holds across bodies, and drop ours.
            triple = *cached;
            shared = true;
        } else {
            triples_.put(tripleFp, triple);
        }
    }
    if (shared)
        ++tripleShares_;

    // Keyed by the kept triple's prefix, so every memo entry of the
    // triple shares it.
    PlanRequest point{&triple->perf, &triple->model, &triple->task,
                      task->plan};
    point.keyPrefix = triple->keyPrefix;
    MemoKey engineKey = EvalEngine::memoKey(point);
    evictions_ += static_cast<long>(bodies_.put(
        bodyHash, BodyEntry{body, triple, task->plan, engineKey}));
    return {std::move(triple), std::move(task->plan),
            std::move(engineKey)};
}

bool
ConfigCache::peekKey(const std::string &body, MemoKey &engineKey) const
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
