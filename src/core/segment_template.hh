/**
 * @file
 * Symbolic per-template event segments — the cache unit every
 * evaluation's event graph is spliced from.
 *
 * One iteration's event graph is a concatenation of per-layer
 * *segments* (the layer's pre-phase collectives, its compute event,
 * its post-phase collectives) in a fixed emission order: forward
 * layers 0..N-1, then backward layers N-1..0. Within a segment, everything — event count, durations,
 * categories, blocking flags, label suffixes, and the *shape* of
 * every dependency — is determined by the layer's shape
 * (Layer::sameShape), its class's (HierStrategy, fsdpPrefetch), the
 * pass direction, and the layer's place in the graph *relative to
 * itself*: which layers it consumes and feeds, as offsets, and
 * whether it has 0, 1 or 2+ compute events before it. Only the layer
 * index and name (which a retained Timeline takes from the layer)
 * and the absolute event ids the dependencies resolve to change from
 * layer to layer and plan to plan.
 *
 * The EvalContext therefore gives every layer a class-local
 * *template id* for that (shape, producer offsets, consumer offsets,
 * min(ordinal, 2)) key — a transformer stack of any depth has a
 * handful — and a SegmentSet holds one symbolic segment per template
 * of one class for one (strategy, prefetch, pass direction). Its size
 * is O(distinct templates), not O(layers). The splicer expands a plan
 * layer by layer, reading each layer's template segment in place and
 * resolving its dependencies in one flat pass.
 *
 * The symbolic dependency kinds are the only ways the stream builder
 * (core/stream_builder.hh) ever wires an edge, each stored relative
 * to the segment being spliced:
 *
 *  - Local:     an earlier event of the same segment (pre-comm ->
 *               compute, compute -> post-comm chains);
 *  - FwdOut:    the forward visible output of another layer, as a
 *               layer offset (data deps, and the incoming-gradient
 *               fallback of a layer nothing consumes);
 *  - BwdOut:    the backward visible output of a consumer layer, as a
 *               layer offset (incoming gradients);
 *  - ComputeAt: the compute event k emission ordinals back (FSDP
 *               parameter-gather issue anchors — k = 1 without
 *               prefetch, k = 2 with, Fig. 9).
 *
 * All four resolve against state the splicer carries forward anyway
 * (per-layer output ids and the compute-event list, indexed by
 * emission ordinal: layer i forward, 2N-1-i backward), so
 * instantiation never inspects other sets. Whether a dependency
 * *exists* is decided when the template is built: producers precede
 * consumers, so it is a sign test on the offset, and a ComputeAt
 * anchor exists iff the ordinal is at least k, which min(ordinal, 2)
 * in the template key fixes (a backward ordinal is always >= 2 once
 * N >= 2).
 */

#ifndef MADMAX_CORE_SEGMENT_TEMPLATE_HH
#define MADMAX_CORE_SEGMENT_TEMPLATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "model/layer.hh"
#include "trace/trace_event.hh"

namespace madmax
{

/**
 * One symbolic dependency of a templated event: one add (Local) or
 * one indexed load at (anchor + value), where the anchor is the
 * segment's first node (Local), its layer (FwdOut, BwdOut) or its
 * emission ordinal (ComputeAt).
 */
struct SymDep
{
    enum class Kind : uint8_t
    {
        Local,     ///< value = segment-local index of an earlier event.
        FwdOut,    ///< value = producer layer - this layer.
        BwdOut,    ///< value = consumer layer - this layer.
        ComputeAt, ///< value = -k: the compute event k ordinals back.
    };

    Kind kind = Kind::Local;
    int32_t value = 0;
};

/**
 * One templated event: what the splicer schedules it by and what a
 * retained Timeline's TraceEvent copies from it. Its label base,
 * layer index and pass direction come from the layer it is expanded
 * for. Its depsCount symbolic dependencies follow those of the
 * segment's earlier events in the arena, 1:1 in order with the
 * concrete ones a splice resolves.
 */
struct TemplateEvent
{
    double duration = 0.0;
    uint32_t depsCount = 0;
    StreamKind stream = StreamKind::Compute;
    EventCategory category = EventCategory::Other;
    CollAlgo algo = CollAlgo::None;
    bool blocking = true;
    NameSuffix suffix = NameSuffix::None; ///< Appended to the layer name.
};

/**
 * The template segments of one layer class for one pass direction
 * under one (HierStrategy, fsdpPrefetch) binding, packed into two flat
 * arenas: segment t is template t's (EvalContext::LayerCosts::
 * templateId, fixed by the context's shared EvalContext::Layout).
 */
struct SegmentSet
{
    std::vector<TemplateEvent> events;
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
        uint32_t numEvents = 0;
        uint32_t depBegin = 0;   ///< First symbolic dep in `deps`.
        int32_t outputLocal = -1;  ///< Visible output, segment-local.
        int32_t computeLocal = -1; ///< Compute event, segment-local.
    };

    std::vector<Seg> segs; ///< Indexed by template id.

    /** Events the class's layers expand to in one pass (each
     *  template's event count times its layer count), so a splice
     *  sizes its buffers without walking the layers. */
    size_t expandedEvents = 0;
};

/**
 * The sets one plan's graph is spliced from, indexed by LayerClass:
 * each present class's forward set, and for backward tasks its
 * backward set, under the strategy the plan maps the class to. Null
 * for absent classes.
 */
struct PlanSegments
{
    std::array<const SegmentSet *, kNumLayerClasses> fwd{};
    std::array<const SegmentSet *, kNumLayerClasses> bwd{};
};

} // namespace madmax

#endif // MADMAX_CORE_SEGMENT_TEMPLATE_HH
