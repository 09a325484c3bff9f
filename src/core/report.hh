/**
 * @file
 * Performance report: everything MAD-Max tells you about one
 * (model, task, plan, cluster) evaluation — iteration time,
 * throughput, exposed communication, serialized-execution and
 * communication breakdowns (Fig. 20), and the memory verdict.
 */

#ifndef MADMAX_CORE_REPORT_HH
#define MADMAX_CORE_REPORT_HH

#include <string>
#include <utility>
#include <vector>

#include "config/json.hh"
#include "core/memory_model.hh"
#include "hw/cluster.hh"
#include "parallel/strategy.hh"
#include "trace/trace_event.hh"

namespace madmax
{

/**
 * Why one request's evaluation failed, when it did. The engine
 * isolates per-request exceptions (see EvalEngine::evaluateAll): a
 * throwing plan evaluation produces a report with `errorKind` set
 * instead of taking down its whole batch. The serving layer maps the
 * kinds onto its error taxonomy (Config -> 400, Resource -> 503,
 * Internal -> 500).
 */
enum class EvalErrorKind
{
    None,     ///< The evaluation completed (report is meaningful).
    Config,   ///< ConfigError: the request's own input is at fault.
    Resource, ///< std::bad_alloc during evaluation.
    Internal, ///< Any other exception (a model bug, injected fault).
};

/** Stable lower-case name for an EvalErrorKind ("config", ...). */
const char *evalErrorKindName(EvalErrorKind kind);

/**
 * Seconds per event category: one entry per category an iteration
 * touched, in category order. A flat vector, not a map, because memo
 * caches hold thousands of reports and a map spends a heap node per
 * category.
 */
using CategoryTimes = std::vector<std::pair<EventCategory, double>>;

/** The seconds @p times holds for @p cat; 0 if it was not touched. */
double categorySeconds(const CategoryTimes &times, EventCategory cat);

/** Result of one performance-model evaluation. */
struct PerfReport
{
    std::string modelName;
    std::string clusterName;
    std::string taskName;
    ParallelPlan plan;

    /** False when the plan exceeds per-device memory (OOM). */
    bool valid = false;

    /** Set when the evaluation threw instead of completing; every
     *  other field except the identity ones is meaningless then. */
    EvalErrorKind errorKind = EvalErrorKind::None;
    std::string errorMessage;

    /** Did this evaluation throw? (Distinct from OOM-invalid.) */
    bool failed() const { return errorKind != EvalErrorKind::None; }

    /** Per-device memory verdict. */
    MemoryFootprint memory;

    /** Overlapped (real) iteration time, seconds. */
    double iterationTime = 0.0;

    /** Serialized execution time: all compute + all comm, seconds. */
    double serializedTime = 0.0;

    double computeTime = 0.0;     ///< Compute-stream busy seconds.
    double commTime = 0.0;        ///< Communication-stream busy seconds.
    double exposedCommTime = 0.0; ///< Comm not hidden behind compute.

    long globalBatchSize = 0;
    long contextLength = 1;

    /** Serialized seconds by category (Fig. 20a/c). */
    CategoryTimes serializedBreakdown;

    /** Exposed seconds by communication category (Fig. 20b/d). */
    CategoryTimes exposedBreakdown;

    /** Full scheduled trace (empty if PerfModelOptions disabled it). */
    Timeline timeline;

    /** Samples per second (queries/s for recommendation models). */
    double throughput() const;

    /** Tokens per second for LLM workloads. */
    double tokensPerSecond() const;

    /** Fraction of communication hidden behind compute. */
    double overlapFraction() const;

    /** Fraction of communication exposed. */
    double exposedFraction() const;

    /**
     * Aggregate device-hours to process @p samples samples,
     * optionally normalized to A100 peak FLOPS via @p peak_ratio
     * (Fig. 16's resource metric).
     */
    double deviceHoursPerSamples(double samples, int num_devices,
                                 double peak_ratio = 1.0) const;

    /** Render a human-readable multi-line summary. */
    std::string summary() const;
};

/**
 * The first internal invariant @p r breaks, described with its
 * values, or "" when it keeps them all:
 *  - exposed comm <= comm <= serialized time, and compute time <=
 *    iteration time;
 *  - each breakdown sums to its total;
 *  - validity matches the memory verdict unless @p ignoreMemory.
 * A breakdown adds its total's terms in another order, and an exposed
 * term is a scheduled interval's length (finish - start) rather than
 * the event's duration, so the exposed and the breakdown checks allow
 * rounding: 1e-9 of the larger of the serialized and the iteration
 * time. Trees built
 * with MADMAX_ASAN run it on every report EvalContext::evaluate
 * schedules.
 */
std::string reportInvariantViolation(const PerfReport &r,
                                     bool ignoreMemory);

/**
 * Machine-readable report rendering — the one JSON schema every
 * MAD-Max surface emits: `madmax_cli evaluate/explore --format json`
 * and the serving API's `/v1/evaluate` / `/v1/explore` responses all
 * serialize through here, so their outputs are byte-identical for the
 * same inputs (JsonValue keeps object keys sorted, making dumps
 * deterministic). Timing fields are present only when the plan fits
 * in memory (`valid`).
 */
JsonValue toJson(const PerfReport &report);

} // namespace madmax

#endif // MADMAX_CORE_REPORT_HH
