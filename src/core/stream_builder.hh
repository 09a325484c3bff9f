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
 * segments symbolically (core/segment_template.hh) once per (class,
 * strategy, prefetch, pass direction) — the EvalContext caches the
 * arenas with its per-class strategy tables. spliceSegmentRuns then
 * assembles any plan's concrete flat EventGraph from those arenas in
 * one pass. Nodes carry borrowed name pointers; strings are copied
 * only when a caller retains the Timeline.
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
 * Generate the packed segment arena of the layers in @p layers (one
 * class's layers, ascending) for one pass direction under one (ops
 * table, prefetch) binding; @p perLayerOps[k] holds the resolved ops
 * of layers[k]. Segments land in emission order (forward ascending,
 * backward descending), each carrying its layer and wired with its
 * whole-graph emission ordinal, so the arena splices into any plan's
 * graph. Name pointers borrow from @p costs and @p perLayerOps, so
 * the set is valid exactly as long as its owning EvalContext
 * strategy table.
 */
void buildSegmentSet(
    const ModelDesc &desc,
    const std::vector<EvalContext::LayerCosts> &costs,
    const std::vector<int> &layers,
    const std::vector<std::vector<ResolvedCommOp>> &perLayerOps,
    bool backwardPass, bool prefetch, SegmentSet &out);

/**
 * Splice a full iteration from packed segment arenas: @p runs holds
 * the maximal same-class segment runs in emission order — forward
 * runs covering layers 0..N-1, then (when @p withBackward) backward
 * runs covering layers N-1..0, each run a contiguous range of its
 * class's set — and the graph is rebuilt in one pass:
 * a single sizing of the node/dep arrays, one bulk contiguous node
 * copy per run, a flat symbolic-dependency resolution sweep, and the
 * iteration-end barrier (a zero-duration compute event depending on
 * every other node). The result is ready for
 * OverlapSimulator::scheduleGraphInto. @p fwdOut / @p bwdOut /
 * @p computeIds are caller-owned state reused across splices
 * (resized/cleared here).
 */
void spliceSegmentRuns(const SpliceRun *runs, size_t numRuns,
                       int numLayers, bool withBackward,
                       EventGraph &graph, std::vector<int32_t> &fwdOut,
                       std::vector<int32_t> &bwdOut,
                       std::vector<int32_t> &computeIds);

} // namespace madmax

#endif // MADMAX_CORE_STREAM_BUILDER_HH
