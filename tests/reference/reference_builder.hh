/**
 * @file
 * The differential oracle for the evaluation path: a deliberately
 * plain event-graph builder that emits one iteration layer by layer
 * (no segment templates, no splicing, no per-thread buffers), a
 * plain scheduler of its own over the event list that validates
 * arbitrary event ids, and a reference evaluate() that assembles a
 * PerfReport with a materialized Timeline from the two.
 *
 * Production evaluation (EvalContext::evaluate) splices its graph from
 * cached per-(layer class, strategy) segment arenas and schedules each
 * event as it writes it. The reference shares neither step, so the
 * differential suites catch a fault in either one. The differential
 * suites compare its reports and timelines bitwise against this
 * oracle, and the stream-builder and overlap-simulator suites pin the
 * oracle's wiring and scheduling semantics. Test-only: never linked
 * into the library.
 */

#ifndef MADMAX_TESTS_REFERENCE_REFERENCE_BUILDER_HH
#define MADMAX_TESTS_REFERENCE_REFERENCE_BUILDER_HH

#include <vector>

#include "collective/topology_model.hh"
#include "core/layer_processor.hh"
#include "core/perf_model.hh"
#include "trace/trace_event.hh"

namespace madmax
{
namespace reference
{

/**
 * One iteration's per-device event DAG for (desc, task, plan) on
 * @p cluster, in issue order with ids equal to positions: forward
 * layers 0..N-1, backward layers N-1..0 (training tasks), then the
 * iteration-end barrier. Compute times come from @p processor,
 * collective durations from @p collectives; collectives that price to
 * zero or less are dropped.
 */
std::vector<TraceEvent>
buildEvents(const ModelDesc &desc, const TaskSpec &task,
            const ParallelPlan &plan, const ClusterSpec &cluster,
            const LayerProcessor &processor,
            const TopologyCollectiveModel &collectives);

/** A reference schedule: the Timeline plus its busy and exposed sums. */
struct ScheduleResult
{
    Timeline timeline;
    double computeBusy = 0.0; ///< Sum of compute durations.
    double commBusy = 0.0;    ///< Sum of communication durations.
    double exposedComm = 0.0; ///< Comm time with idle compute stream.
};

/**
 * Schedule @p events (issue order per stream) with the reference
 * scheduler: a sequential max over each event's dependencies, stream
 * cursors per channel, and a direct scan for exposed comm. Ids may be
 * arbitrary and are validated: duplicate ids and dependencies on
 * unscheduled events panic (InternalError).
 */
ScheduleResult schedule(const std::vector<TraceEvent> &events,
                        bool backgroundChannel = true);

/**
 * Reference evaluation of one plan on @p model: the memory verdict,
 * then (unless the plan is OOM and memory is not ignored) the built
 * and scheduled iteration with every timing field, both breakdowns,
 * and the Timeline filled — regardless of
 * PerfModelOptions::keepTimeline.
 */
PerfReport evaluate(const PerfModel &model, const ModelDesc &desc,
                    const TaskSpec &task, const ParallelPlan &plan);

} // namespace reference
} // namespace madmax

#endif // MADMAX_TESTS_REFERENCE_REFERENCE_BUILDER_HH
