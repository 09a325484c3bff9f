/**
 * @file
 * Symbolic per-layer event-segment arenas — the cache unit every
 * evaluation's event graph is spliced from.
 *
 * One iteration's event graph is a concatenation of per-layer
 * *segments* (the layer's pre-phase collectives, its compute event,
 * its post-phase collectives) in a fixed emission order: forward
 * layers 0..N-1, then backward layers N-1..0, then the iteration-end
 * barrier. Within a segment, everything — event count, durations,
 * labels, blocking flags, and the *shape* of every dependency — is
 * fully determined by (layer, the layer class's HierStrategy,
 * fsdpPrefetch, pass direction) and is independent of what strategies
 * the other classes picked. Only the absolute event ids a segment's
 * dependencies resolve to change from plan to plan.
 *
 * A SegmentSet captures one pass direction of one layer class under
 * one (strategy, prefetch) binding: the segments of that class's
 * layers packed back-to-back in emission order, with the
 * dependencies in symbolic form. The EvalContext builds a set once
 * per (class, strategy, prefetch, pass) and splices concrete flat
 * EventGraphs from it for any plan that maps the class to that
 * strategy. Because consecutive same-class layers occupy consecutive
 * arena ranges, a splice is a handful of long contiguous copies (one
 * per class *run*) plus a flat dependency-resolution sweep — not a
 * pointer chase across hundreds of per-layer objects.
 *
 * The symbolic dependency kinds are the only ways the stream builder
 * (core/stream_builder.hh) ever wires an edge:
 *
 *  - Local:     an earlier event of the same segment (pre-comm ->
 *               compute, compute -> post-comm chains);
 *  - FwdOut:    the forward visible output of another layer (data
 *               deps, and the incoming-gradient fallback of the last
 *               layer);
 *  - BwdOut:    the backward visible output of a consumer layer
 *               (incoming gradients);
 *  - ComputeAt: the compute event of an earlier emission ordinal
 *               (FSDP parameter-gather issue anchors — the k-th most
 *               recent compute, k = 1 without prefetch, k = 2 with,
 *               Fig. 9 — folded to an absolute ordinal at pack time).
 *
 * All four resolve against state the splicer carries forward anyway
 * (per-layer output ids and the compute-event list), so instantiation
 * never inspects other sets. Whether a FwdOut/BwdOut/ComputeAt
 * dependency *exists* is decided statically at arena-build time:
 * emission order makes "already built" equivalent to an index
 * comparison (producers precede consumers), and the compute-event
 * count before a segment equals its whole-graph emission ordinal
 * (layer i forward, 2N-1-i backward), which the builder passes in
 * explicitly because a class's set skips the other classes' layers.
 */

#ifndef MADMAX_CORE_SEGMENT_TEMPLATE_HH
#define MADMAX_CORE_SEGMENT_TEMPLATE_HH

#include <cstdint>
#include <vector>

#include "trace/event_graph.hh"

namespace madmax
{

/**
 * One symbolic dependency of a templated event. Every kind resolves
 * with one indexed load (or one add) against state whose entries for
 * a run are filled before its dependency sweep, so the splicer
 * resolves a run's dependencies in a single flat pass with no
 * per-segment bookkeeping.
 */
struct SymDep
{
    enum class Kind : uint8_t
    {
        Local,     ///< value = *arena* index of an earlier event of
                   ///  the same segment (resolves by adding the run's
                   ///  node shift).
        FwdOut,    ///< value = layer whose forward output gates this.
        BwdOut,    ///< value = layer whose backward output gates this.
        ComputeAt, ///< value = emission ordinal whose compute event
                   ///  gates this (FSDP gather issue anchors, folded
                   ///  from "k-th most recent" at pack time).
    };

    Kind kind = Kind::Local;
    int32_t value = 0;
};

/**
 * The cached event subgraphs one layer class's layers contribute to
 * one pass direction under one (HierStrategy, fsdpPrefetch) binding,
 * packed into two flat arenas in emission order — forward sets hold
 * the class's layers ascending, backward sets descending — so set
 * entry e is the class's e-th layer (forward) or its (|L|-1-e)-th
 * (backward); each entry records its layer.
 *
 * Events are stored as ready-made EventNodes (names borrowed from the
 * owning EvalContext's stable storage) whose depsBegin/depsCount
 * address the *symbolic* arena, which corresponds 1:1 in order with
 * the concrete dependency list a splice instantiates. Splicing a run
 * of consecutive segments is therefore one bulk node copy with a
 * run-constant depsBegin shift plus one flat dependency-resolution
 * sweep over the same index range.
 */
struct SegmentSet
{
    std::vector<EventNode> events;
    std::vector<SymDep> deps; ///< Shared symbolic-dependency arena.

    /** Per-segment arena offsets and the two distinguished events.
     *  Exactly one event per segment is its compute event; the
     *  visible output (what downstream data / gradient deps attach
     *  to) is the compute event or the last blocking post-collective
     *  chained after it. Local indices are relative to the segment's
     *  own eventBegin. */
    struct Seg
    {
        uint32_t eventBegin = 0; ///< First event in `events`.
        uint32_t depBegin = 0;   ///< First symbolic dep in `deps`.
        int32_t outputLocal = -1;  ///< Visible output, segment-local.
        int32_t computeLocal = -1; ///< Compute event, segment-local.
        int32_t layer = -1;        ///< Graph index of the layer.
    };

    /** One entry per segment in emission order, plus a sentinel whose
     *  eventBegin/depBegin are the arena sizes — segment e spans
     *  [segs[e].eventBegin, segs[e+1].eventBegin). */
    std::vector<Seg> segs;
};

/**
 * One maximal run of consecutive same-class segments to splice: @p
 * count segments of @p set starting at set index @p first. Runs are
 * what EvalContext::spliceGraph hands the splicer — a plan's graph is
 * the forward runs in layer order, then (for backward tasks) the
 * backward runs in reverse layer order.
 */
struct SpliceRun
{
    const SegmentSet *set = nullptr;
    uint32_t first = 0; ///< First segment index within *set.
    uint32_t count = 0; ///< Number of consecutive segments.
    bool backward = false;
};

} // namespace madmax

#endif // MADMAX_CORE_SEGMENT_TEMPLATE_HH
