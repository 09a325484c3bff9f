#include "core/stream_builder.hh"

#include <algorithm>

namespace madmax
{

namespace
{

/**
 * What one template segment emission reads: the representative
 * layer's compute cost, its resolved collectives, and the graph
 * topology for data / gradient dependencies (consumer lists
 * precomputed by the EvalContext).
 */
struct SegmentSpec
{
    const ModelGraph *graph = nullptr;
    int idx = 0;
    size_t ordinal = 0; ///< Whole-graph emission ordinal.
    const int *consumers = nullptr;
    uint32_t numConsumers = 0;
    double computeTime = 0.0;
    EventCategory category = EventCategory::Other;
    const std::vector<ResolvedCommOp> *ops = nullptr;
    bool prefetch = false;
    bool backward = false;
};

/**
 * Emits template segments symbolically into a SegmentSet arena
 * (buildSegmentSet). Whether a FwdOut/BwdOut/ComputeAt dependency
 * exists is decided here, from emission order alone: in the forward
 * pass layer d's output exists iff d < idx (dependencies point
 * backwards), in the backward pass every forward output exists and
 * consumer c's backward output exists iff c > idx; the compute-event
 * count before a segment is its whole-graph emission ordinal (layer
 * i forward, 2N-1-i backward). Every dependency is stored relative to
 * the emitting layer, which is why one segment serves every layer of
 * its template, under any plan.
 */
class TemplateEmitter
{
  public:
    explicit TemplateEmitter(SegmentSet &set) : set_(set) {}

    void beginSegment(int idx, bool backward, size_t ordinal)
    {
        idx_ = idx;
        backward_ = backward;
        ordinal_ = ordinal;
        segEventBase_ = set_.events.size();
        staged_ = 0;
        SegmentSet::Seg seg;
        seg.eventBegin = static_cast<uint32_t>(segEventBase_);
        seg.depBegin = static_cast<uint32_t>(set_.deps.size());
        set_.segs.push_back(seg);
    }

    size_t computeCountBefore() const { return ordinal_; }

    void depLocal(int32_t local)
    {
        stage(SymDep{SymDep::Kind::Local, local});
    }

    void depComputeBack(size_t k)
    {
        stage(SymDep{SymDep::Kind::ComputeAt, -static_cast<int32_t>(k)});
    }

    bool depFwdOut(int layer)
    {
        if (!backward_ && layer >= idx_)
            return false;
        stage(SymDep{SymDep::Kind::FwdOut, layer - idx_});
        return true;
    }

    bool depBwdOut(int layer)
    {
        if (!backward_ || layer <= idx_)
            return false;
        stage(SymDep{SymDep::Kind::BwdOut, layer - idx_});
        return true;
    }

    int32_t addEvent(NameSuffix suffix, StreamKind stream,
                     EventCategory category, double duration,
                     bool blocking, CollAlgo algo)
    {
        TemplateEvent ev;
        ev.duration = duration;
        // Its deps are the ones staged since the previous event, so
        // they follow the earlier events' deps in the arena.
        ev.depsCount = static_cast<uint32_t>(staged_);
        ev.stream = stream;
        ev.category = category;
        ev.algo = algo;
        ev.blocking = blocking;
        ev.suffix = suffix;
        staged_ = 0;
        set_.events.push_back(ev);
        return static_cast<int32_t>(set_.events.size() -
                                    segEventBase_) -
               1;
    }

    void markCompute(int32_t local)
    {
        set_.segs.back().computeLocal = local;
    }
    void finishSegment(int32_t outLocal)
    {
        SegmentSet::Seg &seg = set_.segs.back();
        seg.outputLocal = outLocal;
        seg.numEvents =
            static_cast<uint32_t>(set_.events.size() - segEventBase_);
    }

  private:
    void stage(SymDep dep)
    {
        set_.deps.push_back(dep);
        ++staged_;
    }

    SegmentSet &set_;
    size_t ordinal_ = 0; ///< Emission ordinal of this segment.
    size_t segEventBase_ = 0; ///< First arena event of this segment.
    size_t staged_ = 0; ///< Symbolic deps staged since the last event.
    int idx_ = 0;
    bool backward_ = false;
};

/**
 * Emit one layer's segment — its pre-phase collectives, its compute
 * event, and its post-phase collectives — deciding event order and
 * dependency wiring (blocking collectives gate downstream compute,
 * non-blocking ones only the iteration-end barrier, FSDP gathers
 * anchor on earlier compute events per Fig. 9).
 */
void
emitLayerSegment(const SegmentSpec &s, TemplateEmitter &em)
{
    em.beginSegment(s.idx, s.backward, s.ordinal);
    const Phase phase = s.backward ? Phase::Backward : Phase::Forward;

    // Parameter AllGathers have no data dependency; what limits them
    // is issue time. Without prefetching the gather is issued when the
    // consuming layer starts (i.e. after the preceding compute event
    // finishes); with prefetching it is issued one layer earlier and
    // can hide behind the preceding layer's compute (Fig. 9).
    auto stageParamGatherDeps = [&] {
        const size_t n = em.computeCountBefore();
        if (s.prefetch) {
            if (n >= 2)
                em.depComputeBack(2);
            return;
        }
        if (n >= 1)
            em.depComputeBack(1);
    };
    // Forward data dependencies: the producers' visible outputs.
    auto stageDataDeps = [&] {
        for (int d : s.graph->deps(s.idx))
            em.depFwdOut(d);
    };
    // Incoming gradients: the backward outputs of this layer's
    // consumers (or the end of forward for the final layer).
    auto stageGradDeps = [&] {
        bool any = false;
        for (uint32_t k = 0; k < s.numConsumers; ++k) {
            if (em.depBwdOut(s.consumers[k]))
                any = true;
        }
        if (!any)
            em.depFwdOut(s.idx);
    };

    // The pre-phase collectives open the segment, so their local ids
    // are 0 .. num_pre - 1.
    int32_t num_pre = 0;
    for (const ResolvedCommOp &op : *s.ops) {
        if (op.phase != phase || op.position != CommPosition::Pre)
            continue;
        if (op.kind == Collective::AllGather)
            stageParamGatherDeps();
        else if (s.backward)
            stageGradDeps();
        else
            stageDataDeps();
        em.addEvent(op.suffix, StreamKind::Communication, op.category,
                    op.duration, op.blocking, op.algo);
        ++num_pre;
    }

    // The layer's compute block.
    if (s.backward) {
        stageGradDeps();
        for (int32_t p = 0; p < num_pre; ++p)
            em.depLocal(p);
    } else {
        for (int32_t p = 0; p < num_pre; ++p)
            em.depLocal(p);
        stageDataDeps();
    }
    int32_t cid = em.addEvent(s.backward ? NameSuffix::Backward
                                         : NameSuffix::None,
                              StreamKind::Compute,
                              s.category, s.computeTime, true,
                              CollAlgo::None);
    em.markCompute(cid);

    // Post comms; blocking ones become the layer's visible output.
    int32_t out = cid;
    for (const ResolvedCommOp &op : *s.ops) {
        if (op.phase != phase || op.position != CommPosition::Post)
            continue;
        em.depLocal(out);
        int32_t eid = em.addEvent(op.suffix, StreamKind::Communication,
                                  op.category, op.duration,
                                  op.blocking, op.algo);
        if (op.blocking)
            out = eid;
    }
    em.finishSegment(out);
}

constexpr size_t kNumCategories =
    static_cast<size_t>(EventCategory::Other) + 1;

/** @p v's data, with @p v grown to at least @p n entries (it never
 *  shrinks, so a thread's buffers settle at its largest splice). */
template <typename T>
T *
atLeast(std::vector<T> &v, size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return v.data();
}

/**
 * spliceSegments, compiled once per Timeline setting. Everything the
 * schedule carries from node to node (channel cursors, busy sums,
 * per-category sums, buffer fill counts) is a local, so the stores
 * into the node buffers cannot alias it. Each layer's visible outputs
 * and each compute event keep a copy of their Placed entry, so a
 * symbolic dependency resolves with one load: through a per-segment
 * table of four base pointers indexed by its kind, at its value. Only
 * the kTimeline instantiation writes the ids a retained Timeline lists
 * as dependencies.
 */
template <bool kTimeline>
void
splice(const PlanSegments &sets, const EvalContext::LayerCosts *costs,
       size_t nl, bool withBackward, bool backgroundChannel,
       EvalContext::Scratch &s, PerfReport &report, Timeline *timeline)
{
    // Each set knows what its class expands to; every node is a
    // compute node (at most one cover entry) or a comm one (at most
    // one query).
    size_t total_nodes = 0;
    for (size_t c = 0; c < kNumLayerClasses; ++c) {
        for (const SegmentSet *set : {sets.fwd[c], sets.bwd[c]}) {
            if (set != nullptr)
                total_nodes += set->expandedEvents;
        }
    }
    const size_t emissions = withBackward ? 2 * nl : nl;
    using Placed = EvalContext::Scratch::Placed;
    Placed *const nodes = atLeast(s.nodes, total_nodes);
    Placed *const outputs = atLeast(s.outputs, 2 * nl);
    Placed *const computes = atLeast(s.computes, emissions);
    auto *const cover = atLeast(s.cover, total_nodes);
    auto *const queries = atLeast(s.queries, total_nodes);
    if constexpr (kTimeline) // With room for the iteration-end barrier.
        timeline->events.reserve(total_nodes + 1);

    /* Channel cursors: compute, blocking communication, and the
     * background channel non-blocking collectives (gradient AllReduce
     * / ReduceScatter) ride, as NCCL does, so they do not head-of-line
     * block later blocking collectives. */
    double compute_cursor = 0.0;
    double blocking_cursor = 0.0;
    double background_cursor = 0.0;
    double compute_busy = 0.0;
    double comm_busy = 0.0;
    double serialized[kNumCategories] = {};
    /* A category has a breakdown entry iff a node touched it, even
     * when the touches summed to zero. */
    bool serialized_touched[kNumCategories] = {};
    size_t num_cover = 0;
    size_t num_queries = 0;
    size_t node = 0; // Nodes expanded so far.

    // Emission ordinal k: forward layers 0..N-1, then backward layers
    // N-1..0.
    for (size_t k = 0; k < emissions; ++k) {
        const bool backward = k >= nl;
        const size_t layer = backward ? 2 * nl - 1 - k : k;
        const EvalContext::LayerCosts &lc = costs[layer];
        const size_t cls = static_cast<size_t>(lc.cls);
        const SegmentSet &set = backward ? *sets.bwd[cls] : *sets.fwd[cls];
        const SegmentSet::Seg seg = set.segs[lc.templateId];
        const TemplateEvent *const src = set.events.data() + seg.eventBegin;
        const SymDep *sym = set.deps.data() + seg.depBegin;
        Placed *const seg_nodes = nodes + node;
        // Indexed by SymDep::Kind: Local, FwdOut, BwdOut, ComputeAt.
        const Placed *const anchors[4] = {seg_nodes, outputs + layer,
                                          outputs + nl + layer,
                                          computes + k};

        for (uint32_t e = 0; e < seg.numEvents; ++e) {
            const TemplateEvent &ev = src[e];
            ScheduledEvent *out = nullptr;
            if constexpr (kTimeline) {
                out = &timeline->events.emplace_back();
                out->event.deps.reserve(ev.depsCount);
            }
            // The node is ready once the latest of its dependencies
            // finishes.
            double ready = 0.0;
            for (uint32_t d = 0; d < ev.depsCount; ++d, ++sym) {
                const Placed &dep =
                    anchors[static_cast<size_t>(sym->kind)][sym->value];
                ready = std::max(ready, dep.finish);
                if constexpr (kTimeline)
                    out->event.deps.push_back(dep.id);
            }

            // Place the node on its channel.
            double start = 0.0;
            double end = 0.0;
            const size_t c = static_cast<size_t>(ev.category);
            if (ev.duration > 0.0) {
                serialized[c] += ev.duration;
                serialized_touched[c] = true;
            }
            if (ev.stream == StreamKind::Compute) {
                start = std::max(compute_cursor, ready);
                end = start + ev.duration;
                compute_cursor = end;
                compute_busy += ev.duration;
                // The compute stream runs in order, so its busy
                // intervals arrive ascending and merge into the cover
                // as they come.
                if (end > start) {
                    if (num_cover > 0 && start <= cover[num_cover - 1].hi)
                        cover[num_cover - 1].hi =
                            std::max(cover[num_cover - 1].hi, end);
                    else
                        cover[num_cover++] = {start, end};
                }
            } else {
                const bool background = backgroundChannel && !ev.blocking;
                start = std::max(background ? background_cursor
                                            : blocking_cursor,
                                 ready);
                end = start + ev.duration;
                if (background)
                    background_cursor = end;
                else
                    blocking_cursor = end;
                comm_busy += ev.duration;
                if (end > start) {
                    queries[num_queries++] = {start, end, ev.category,
                                              background ? 1u : 0u};
                }
            }
            seg_nodes[e].finish = end;
            if constexpr (kTimeline)
                seg_nodes[e].id = static_cast<int32_t>(node + e);

            if constexpr (kTimeline) {
                TraceEvent &te = out->event;
                te.id = static_cast<int>(node + e);
                te.name = *lc.name + suffixText(ev.suffix);
                te.stream = ev.stream;
                te.category = ev.category;
                te.duration = ev.duration;
                te.blocking = ev.blocking;
                te.layerIdx = static_cast<int>(layer);
                te.backward = backward;
                te.algo = ev.algo;
                out->start = start;
                out->finish = end;
            }
        }

        outputs[(backward ? nl : 0) + layer] = seg_nodes[seg.outputLocal];
        computes[k] = seg_nodes[seg.computeLocal];
        node += seg.numEvents;
    }

    // Each cursor ends at its channel's latest finish, so the makespan
    // (where the iteration-end barrier starts) is the max cursor.
    report.iterationTime = std::max(
        compute_cursor, std::max(blocking_cursor, background_cursor));
    report.serializedTime = compute_busy + comm_busy;
    report.computeTime = compute_busy;
    report.commTime = comm_busy;

    // Exposure. A query's coverage is the sum, in ascending cover
    // order, of its intersections with the cover. A channel's queries
    // start in ascending order, so each channel keeps a forward-only
    // cursor into the cover. The aggregate and the per-category
    // exposed sums add the same terms in node order.
    size_t first_cover[2] = {0, 0};
    double exposed[kNumCategories] = {};
    bool exposed_touched[kNumCategories] = {};
    double total = 0.0;
    for (size_t q = 0; q < num_queries; ++q) {
        const auto &query = queries[q];
        size_t j = first_cover[query.channel];
        while (j < num_cover && cover[j].hi <= query.lo)
            ++j;
        first_cover[query.channel] = j;
        double covered = 0.0;
        for (; j < num_cover && cover[j].lo < query.hi; ++j) {
            const double a = std::max(query.lo, cover[j].lo);
            const double b = std::min(query.hi, cover[j].hi);
            if (b > a)
                covered += b - a;
        }
        const double term = (query.hi - query.lo) - covered;
        const size_t c = static_cast<size_t>(query.category);
        total += term;
        exposed[c] += term;
        exposed_touched[c] = true;
    }
    report.exposedCommTime = total;

    // Both breakdowns land in enum order, each sized exactly once.
    report.serializedBreakdown.reserve(static_cast<size_t>(std::count(
        serialized_touched, serialized_touched + kNumCategories, true)));
    report.exposedBreakdown.reserve(static_cast<size_t>(std::count(
        exposed_touched, exposed_touched + kNumCategories, true)));
    for (size_t c = 0; c < kNumCategories; ++c) {
        const EventCategory cat = static_cast<EventCategory>(c);
        if (serialized_touched[c])
            report.serializedBreakdown.emplace_back(cat, serialized[c]);
        if (exposed_touched[c])
            report.exposedBreakdown.emplace_back(cat, exposed[c]);
    }
}

} // namespace

void
buildSegmentSet(
    const ModelDesc &desc,
    const std::vector<EvalContext::LayerCosts> &layers,
    const EvalContext::ClassLayout &cls,
    const std::vector<EvalContext::ComputeTimes> &shapeTimes,
    const std::vector<std::vector<ResolvedCommOp>> &shapeOps,
    bool backwardPass, bool prefetch, SegmentSet &out)
{
    const size_t num_layers = static_cast<size_t>(desc.graph.numLayers());
    const Phase phase = backwardPass ? Phase::Backward : Phase::Forward;

    // Size both arenas once. A segment has its phase's collectives
    // plus the compute event. A pre-phase collective stages at most
    // one dependency per edge (producer forward, consumer backward,
    // at least one), the compute event as many plus one per pre-phase
    // collective, a post-phase one a single dependency: at most
    // events x (edges + 1) in all.
    size_t num_events = 0;
    size_t num_deps = 0;
    for (int i : cls.templateLayers) {
        const EvalContext::LayerCosts &lc = layers[static_cast<size_t>(i)];
        size_t events = 1;
        for (const ResolvedCommOp &op : shapeOps[lc.shapeId])
            events += op.phase == phase ? 1 : 0;
        const size_t edges = std::max<size_t>(
            1, backwardPass ? lc.numConsumers : desc.graph.deps(i).size());
        num_events += events;
        num_deps += events * (edges + 1);
    }
    out.events.clear();
    out.deps.clear();
    out.segs.clear();
    out.events.reserve(num_events);
    out.deps.reserve(num_deps);
    out.segs.reserve(cls.templateLayers.size());

    TemplateEmitter em(out);
    for (int i : cls.templateLayers) {
        const EvalContext::LayerCosts &lc = layers[static_cast<size_t>(i)];
        SegmentSpec spec;
        spec.graph = &desc.graph;
        spec.idx = i;
        spec.ordinal = backwardPass
            ? 2 * num_layers - 1 - static_cast<size_t>(i)
            : static_cast<size_t>(i);
        spec.consumers = lc.consumers;
        spec.numConsumers = lc.numConsumers;
        spec.computeTime = backwardPass ? shapeTimes[lc.shapeId].bwd
                                        : shapeTimes[lc.shapeId].fwd;
        spec.category = lc.category;
        spec.ops = &shapeOps[lc.shapeId];
        spec.prefetch = prefetch;
        spec.backward = backwardPass;
        emitLayerSegment(spec, em);
    }

    out.expandedEvents = 0;
    for (size_t t = 0; t < cls.templateCounts.size(); ++t) {
        out.expandedEvents += size_t{cls.templateCounts[t]} *
            out.segs[t].numEvents;
    }
}

void
spliceSegments(const PlanSegments &sets,
               const EvalContext::LayerCosts *costs, int numLayers,
               bool withBackward, bool backgroundChannel,
               EvalContext::Scratch &s, PerfReport &report,
               Timeline *timeline)
{
    const size_t nl = static_cast<size_t>(numLayers);
    if (timeline != nullptr) {
        splice<true>(sets, costs, nl, withBackward, backgroundChannel, s,
                     report, timeline);
    } else {
        splice<false>(sets, costs, nl, withBackward, backgroundChannel, s,
                      report, nullptr);
    }
}

} // namespace madmax
