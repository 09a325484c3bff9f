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
 * then expands any plan's concrete flat EventGraph from those sets
 * layer by layer in one pass, stamping each copied node with its
 * layer index and name. Nodes carry the borrowed layer name plus a
 * NameSuffix; labels are composed only when a caller retains the
 * Timeline.
 */

#ifndef MADMAX_CORE_STREAM_BUILDER_HH
#define MADMAX_CORE_STREAM_BUILDER_HH

#include <vector>

#include "core/eval_context.hh"
#include "core/segment_template.hh"
#include "trace/event_graph.hh"

namespace madmax
{

/**
 * Generate one layer class's template segments for one pass direction
 * under one (ops table, prefetch) binding: segment t is emitted from
 * layer @p templateLayers[t] (the first layer with template id t),
 * with its collectives taken from @p shapeOps[costs[layer].shapeId]
 * and every dependency stored relative to the layer, so the segment
 * splices for every layer sharing the template. @p templateCounts[t]
 * is how many layers use template t (sizes the expansion).
 */
void buildSegmentSet(
    const ModelDesc &desc,
    const std::vector<EvalContext::LayerCosts> &costs,
    const std::vector<int> &templateLayers,
    const std::vector<uint32_t> &templateCounts,
    const std::vector<std::vector<ResolvedCommOp>> &shapeOps,
    bool backwardPass, bool prefetch, SegmentSet &out);

/**
 * Splice a full iteration from template segments: forward layers
 * 0..N-1, then (when @p withBackward) backward layers N-1..0, each a
 * copy of its template's segment in @p sets (picked by the layer's
 * class and template id in @p costs) with the layer's index and name
 * written in and its dependencies resolved in one flat sweep, then
 * the iteration-end barrier (a zero-duration compute event depending
 * on every other node). The node/dep arrays are sized once. The
 * result is ready for OverlapSimulator::scheduleGraphInto. @p fwdOut
 * / @p bwdOut / @p computeIds are caller-owned state reused across
 * splices (resized here).
 */
void spliceSegments(const PlanSegments &sets,
                    const EvalContext::LayerCosts *costs, int numLayers,
                    bool withBackward, EventGraph &graph,
                    std::vector<int32_t> &fwdOut,
                    std::vector<int32_t> &bwdOut,
                    std::vector<int32_t> &computeIds);

} // namespace madmax

#endif // MADMAX_CORE_STREAM_BUILDER_HH
