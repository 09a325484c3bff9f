#include "core/report.hh"

#include <algorithm>
#include <cmath>

#include "util/strfmt.hh"

namespace madmax
{

const char *
evalErrorKindName(EvalErrorKind kind)
{
    switch (kind) {
    case EvalErrorKind::None: return "none";
    case EvalErrorKind::Config: return "config";
    case EvalErrorKind::Resource: return "resource";
    case EvalErrorKind::Internal: return "internal";
    }
    return "none";
}

double
categorySeconds(const CategoryTimes &times, EventCategory cat)
{
    for (const auto &[c, seconds] : times) {
        if (c == cat)
            return seconds;
    }
    return 0.0;
}

std::string
reportInvariantViolation(const PerfReport &r, bool ignoreMemory)
{
    double serialized = 0.0;
    for (const auto &entry : r.serializedBreakdown)
        serialized += entry.second;
    double exposed = 0.0;
    for (const auto &entry : r.exposedBreakdown)
        exposed += entry.second;
    const double tol = 1e-9 * std::max(r.serializedTime, r.iterationTime);
    const auto broken = [](const char *rule, double lhs, double rhs) {
        return strfmt("%s fails: %.17g vs %.17g", rule, lhs, rhs);
    };
    if (!(r.exposedCommTime <= r.commTime + tol))
        return broken("exposed <= comm", r.exposedCommTime, r.commTime);
    if (!(r.commTime <= r.serializedTime))
        return broken("comm <= serialized", r.commTime, r.serializedTime);
    if (!(r.computeTime <= r.iterationTime))
        return broken("compute <= iteration", r.computeTime, r.iterationTime);
    if (!(std::fabs(serialized - r.serializedTime) <= tol))
        return broken("serialized breakdown sum", serialized,
                      r.serializedTime);
    if (!(std::fabs(exposed - r.exposedCommTime) <= tol))
        return broken("exposed breakdown sum", exposed, r.exposedCommTime);
    if (r.valid != (r.memory.fits() || ignoreMemory))
        return broken("valid == fits (or memory ignored)", r.valid,
                      r.memory.fits());
    return "";
}

double
PerfReport::throughput() const
{
    if (!valid || iterationTime <= 0.0)
        return 0.0;
    return static_cast<double>(globalBatchSize) / iterationTime;
}

double
PerfReport::tokensPerSecond() const
{
    return throughput() * static_cast<double>(contextLength);
}

double
PerfReport::overlapFraction() const
{
    return commTime > 0.0 ? (commTime - exposedCommTime) / commTime : 0.0;
}

double
PerfReport::exposedFraction() const
{
    return commTime > 0.0 ? exposedCommTime / commTime : 0.0;
}

double
PerfReport::deviceHoursPerSamples(double samples, int num_devices,
                                  double peak_ratio) const
{
    if (!valid || throughput() <= 0.0)
        return 0.0;
    double seconds = samples / throughput();
    return seconds / 3600.0 * static_cast<double>(num_devices) *
        peak_ratio;
}

std::string
PerfReport::summary() const
{
    std::string out;
    out += strfmt("model: %s  cluster: %s  task: %s\n", modelName.c_str(),
                  clusterName.c_str(), taskName.c_str());
    out += strfmt("plan: %s\n", plan.toString().c_str());
    if (failed()) {
        out += strfmt("FAILED (%s): %s\n", evalErrorKindName(errorKind),
                      errorMessage.c_str());
        return out;
    }
    if (!valid) {
        out += strfmt("INVALID (OOM): needs %s of %s usable per device\n",
                      formatBytes(memory.total()).c_str(),
                      formatBytes(memory.usableCapacity).c_str());
        return out;
    }
    out += strfmt("iteration: %s (serialized %s)\n",
                  formatTime(iterationTime).c_str(),
                  formatTime(serializedTime).c_str());
    out += strfmt("throughput: %s samples/s",
                  formatCount(throughput()).c_str());
    if (contextLength > 1) {
        out += strfmt("  (%s tokens/s)",
                      formatCount(tokensPerSecond()).c_str());
    }
    out += "\n";
    out += strfmt("compute: %s  comm: %s  exposed comm: %s (%s of comm)\n",
                  formatTime(computeTime).c_str(),
                  formatTime(commTime).c_str(),
                  formatTime(exposedCommTime).c_str(),
                  formatPercent(exposedFraction()).c_str());
    out += strfmt("memory/device: %s of %s usable",
                  formatBytes(memory.total()).c_str(),
                  formatBytes(memory.usableCapacity).c_str());
    // KV cache is only non-zero for phase-split inference; legacy
    // summaries keep their exact historical shape.
    if (memory.kvCacheBytes > 0.0) {
        out += strfmt("  (kv cache %s)",
                      formatBytes(memory.kvCacheBytes).c_str());
    }
    out += "\n";
    return out;
}

JsonValue
toJson(const PerfReport &r)
{
    JsonValue out;
    out.set("model", r.modelName);
    out.set("cluster", r.clusterName);
    out.set("task", r.taskName);
    out.set("plan", r.plan.toString());
    out.set("valid", r.valid);
    // Failed evaluations (an exception, not an OOM verdict) carry the
    // error pair; successful ones omit it entirely so the historical
    // schema — pinned byte-for-byte by goldens and the serve-smoke
    // byte-compare — is unchanged.
    if (r.failed()) {
        out.set("error", r.errorMessage);
        out.set("error_kind", evalErrorKindName(r.errorKind));
    }
    out.set("memory_bytes_per_device", r.memory.total());
    out.set("memory_usable_bytes", r.memory.usableCapacity);
    // Emitted only when a KV cache exists so every pre-phase report
    // (and golden) keeps its exact historical key set.
    if (r.memory.kvCacheBytes > 0.0)
        out.set("kv_cache_bytes_per_device", r.memory.kvCacheBytes);
    if (r.valid) {
        out.set("iteration_seconds", r.iterationTime);
        out.set("serialized_seconds", r.serializedTime);
        out.set("throughput_samples_per_sec", r.throughput());
        out.set("tokens_per_sec", r.tokensPerSecond());
        out.set("exposed_comm_seconds", r.exposedCommTime);
        out.set("comm_overlap_fraction", r.overlapFraction());
    }
    return out;
}

} // namespace madmax
