/**
 * @file
 * Stream builder (§IV-C "Piecing Together Computation and Comm.
 * Streams"): lays out one iteration's per-device event graph in
 * explicit execution order (layers 0..N-1 forward, then N-1..0
 * backward), with each layer's compute event and the planner's
 * collectives wired so that communication is blocking or
 * non-blocking:
 *
 *  - blocking collectives (embedding All2All, TP partial-sum
 *    AllReduce, FSDP parameter AllGather, MoE dispatch/combine) gate
 *    the downstream compute event;
 *  - non-blocking collectives (DDP gradient AllReduce, FSDP
 *    ReduceScatter) only gate the iteration-end barrier;
 *  - FSDP AllGathers optionally prefetch one layer ahead (Fig. 9),
 *    letting them hide behind the preceding layer's compute.
 *
 * It works in two steps. buildSegmentSet emits one layer class's
 * template segments symbolically (core/segment_template.hh) once per
 * (class, strategy, prefetch, pass direction), one segment per
 * distinct layer template rather than per layer — the EvalContext
 * caches the sets with its per-class strategy tables. spliceSegments
 * then expands any plan from those sets layer by layer, reading each
 * template event in place, and schedules every node as it expands it
 * (the §IV-C overlap scheduler), so the report's timings, and its
 * exposed communication, come out of the same function. Nothing per
 * node is kept but its finish time, and nothing per layer but the
 * finish times of its visible outputs and compute events. The
 * function is compiled twice from one source: without a Timeline, and
 * with one, where the same pass also tracks node ids and appends each
 * node's ScheduledEvent, its label composed from the layer's name and
 * the template event's NameSuffix.
 */

#ifndef MADMAX_CORE_STREAM_BUILDER_HH
#define MADMAX_CORE_STREAM_BUILDER_HH

#include <vector>

#include "core/eval_context.hh"
#include "core/segment_template.hh"
#include "trace/trace_event.hh"

namespace madmax
{

/**
 * Generate one layer class's template segments for one pass direction
 * under one (ops table, prefetch) binding: segment t is emitted from
 * layer @p cls.templateLayers[t] (the first layer with template id t),
 * with its compute time taken from @p shapeTimes[shapeId] and its
 * collectives from @p shapeOps[shapeId] (shapeId = @p layers[layer]'s),
 * and every dependency stored relative to the layer, so the segment
 * splices for every layer sharing the template.
 * @p cls.templateCounts[t] is how many layers use template t (sizes
 * the expansion). The arenas are sized once, before emission.
 */
void buildSegmentSet(
    const ModelDesc &desc,
    const std::vector<EvalContext::LayerCosts> &layers,
    const EvalContext::ClassLayout &cls,
    const std::vector<EvalContext::ComputeTimes> &shapeTimes,
    const std::vector<std::vector<ResolvedCommOp>> &shapeOps,
    bool backwardPass, bool prefetch, SegmentSet &out);

/**
 * Splice and schedule a full iteration in one pass: forward layers
 * 0..N-1, then (when @p withBackward) backward layers N-1..0, each
 * expanded from its template's segment in @p sets (picked by the
 * layer's class and template id in @p costs) with its dependencies
 * resolved. Each node is scheduled as it is expanded (§IV-C): it
 * starts once its channel is free and its dependencies, all earlier
 * nodes, have finished. Compute runs on one in-order stream, blocking
 * collectives on another, and non-blocking ones on a background
 * channel when @p backgroundChannel (else on the blocking one). Every
 * buffer is in @p s; each only grows, and a splice reads only the
 * entries it wrote.
 *
 * Fills @p report's iteration, compute, comm, serialized and exposed
 * times and both breakdowns (each sum adds its terms in node order).
 * Exposed comm has one contract: a comm node's exposed time is its
 * scheduled length minus its coverage by the cover, the merged
 * compute-busy intervals (disjoint and ascending, since the compute
 * stream runs in order). A coverage is the sum of the node's
 * intersections with the cover in ascending cover order. A channel's
 * nodes start in ascending order, so each channel keeps one
 * forward-only cursor into the cover, and one walk over the comm
 * nodes in node order measures them all.
 *
 * When @p timeline is not null, each node's ScheduledEvent (id
 * = node index, label, resolved deps, start, finish) is appended to
 * it as the node is placed. The iteration-end barrier (every node's
 * successor) is not spliced: the makespan is the latest finish, and
 * the caller appends the barrier to a retained Timeline.
 */
void spliceSegments(const PlanSegments &sets,
                    const EvalContext::LayerCosts *costs, int numLayers,
                    bool withBackward, bool backgroundChannel,
                    EvalContext::Scratch &s, PerfReport &report,
                    Timeline *timeline);

} // namespace madmax

#endif // MADMAX_CORE_STREAM_BUILDER_HH
