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

    std::vector<int32_t> pre_ids;
    for (const ResolvedCommOp &op : *s.ops) {
        if (op.phase != phase || op.position != CommPosition::Pre)
            continue;
        if (op.kind == Collective::AllGather)
            stageParamGatherDeps();
        else if (s.backward)
            stageGradDeps();
        else
            stageDataDeps();
        pre_ids.push_back(em.addEvent(op.suffix,
                                      StreamKind::Communication,
                                      op.category, op.duration,
                                      op.blocking, op.algo));
    }

    // The layer's compute block.
    if (s.backward) {
        stageGradDeps();
        for (int32_t p : pre_ids)
            em.depLocal(p);
    } else {
        for (int32_t p : pre_ids)
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

/**
 * One splice in progress: the schedule of the nodes expanded so far.
 * Every node is placed as soon as it is expanded (its dependencies
 * are earlier nodes, so their finishes are known), and the busy sums,
 * the compute cover and the comm queries grow with it in node order.
 * With a retained Timeline, each node's ScheduledEvent is appended
 * right after it is placed.
 */
class Splicer
{
  public:
    Splicer(EvalContext::Scratch &s, bool backgroundChannel,
            Timeline *timeline)
        : s_(s), background_(backgroundChannel), timeline_(timeline)
    {}

    /**
     * Expand layer @p layer's template segment from @p set after the
     * nodes so far and schedule its nodes: resolve their symbolic
     * dependencies against the output ids and compute ids of earlier
     * emissions, and record the segment's own visible output and
     * compute event.
     */
    void expand(const SegmentSet &set, const EvalContext::LayerCosts &lc,
                int layer, size_t ordinal, bool backward);

    /** The schedule's timings and both breakdowns, into @p report. */
    void fillReport(PerfReport &report);

  private:
    /** Schedule node @p i once its dependencies' latest finish,
     *  @p ready, is known; returns its start. */
    double place(size_t i, const TemplateEvent &ev, double ready);

    EvalContext::Scratch &s_;
    bool background_;
    Timeline *timeline_; ///< Null unless the Timeline is retained.
    size_t nodePos_ = 0; ///< Nodes expanded so far.
    /** Channel cursors: [0] compute, [1] blocking communication, [2]
     *  the background channel non-blocking collectives (gradient
     *  AllReduce / ReduceScatter) ride, as NCCL does, so they do not
     *  head-of-line block later blocking collectives. */
    double cursors_[3] = {0.0, 0.0, 0.0};
    double computeBusy_ = 0.0;
    double commBusy_ = 0.0;
    double serialized_[kNumCategories] = {};
    /** A category has a breakdown entry iff a node touched it, even
     *  when the touches summed to zero. */
    bool serializedTouched_[kNumCategories] = {};
};

void
Splicer::expand(const SegmentSet &set, const EvalContext::LayerCosts &lc,
                int layer, size_t ordinal, bool backward)
{
    // A local copy: the finish stores below could alias a
    // reference's fields and force reloads.
    const SegmentSet::Seg seg = set.segs[lc.templateId];
    const int32_t base = static_cast<int32_t>(nodePos_);
    const TemplateEvent *src = set.events.data() + seg.eventBegin;
    const SymDep *sym = set.deps.data() + seg.depBegin;
    const double *finish = s_.finish.data();
    int32_t *fwd_out = s_.fwdOut.data();
    int32_t *bwd_out = s_.bwdOut.data();
    int32_t *compute_ids = s_.computeIds.data();
    const int32_t l = static_cast<int32_t>(layer);
    const int32_t ord = static_cast<int32_t>(ordinal);

    for (uint32_t e = 0; e < seg.numEvents; ++e) {
        const TemplateEvent &ev = src[e];
        ScheduledEvent *out = nullptr;
        if (timeline_ != nullptr) {
            out = &timeline_->events.emplace_back();
            out->event.deps.reserve(ev.depsCount);
        }
        // The node is ready once the latest of its dependencies
        // finishes.
        double ready = 0.0;
        for (uint32_t k = 0; k < ev.depsCount; ++k, ++sym) {
            const int32_t v = sym->value;
            int32_t id = 0;
            switch (sym->kind) {
              case SymDep::Kind::Local: id = base + v; break;
              case SymDep::Kind::FwdOut: id = fwd_out[l + v]; break;
              case SymDep::Kind::BwdOut: id = bwd_out[l + v]; break;
              case SymDep::Kind::ComputeAt: id = compute_ids[ord + v]; break;
            }
            ready = std::max(ready, finish[id]);
            if (out != nullptr)
                out->event.deps.push_back(id);
        }
        const size_t i = nodePos_ + e;
        const double start = place(i, ev, ready);
        if (out != nullptr) {
            TraceEvent &te = out->event;
            te.id = static_cast<int>(i);
            te.name = *lc.name;
            te.name += suffixText(ev.suffix);
            te.stream = ev.stream;
            te.category = ev.category;
            te.duration = ev.duration;
            te.blocking = ev.blocking;
            te.layerIdx = layer;
            te.backward = backward;
            te.algo = ev.algo;
            out->start = start;
            out->finish = finish[i];
        }
    }

    (backward ? bwd_out : fwd_out)[layer] = base + seg.outputLocal;
    compute_ids[ordinal] = base + seg.computeLocal;
    nodePos_ += seg.numEvents;
}

inline double
Splicer::place(size_t i, const TemplateEvent &ev, double ready)
{
    const bool is_compute = ev.stream == StreamKind::Compute;
    const size_t chan = is_compute
        ? 0
        : (background_ && !ev.blocking ? 2 : 1);
    const double start = std::max(cursors_[chan], ready);
    const double finish = start + ev.duration;
    cursors_[chan] = finish;
    s_.finish[i] = finish;

    const size_t c = static_cast<size_t>(ev.category);
    if (ev.duration > 0.0) {
        serialized_[c] += ev.duration;
        serializedTouched_[c] = true;
    }
    if (is_compute) {
        computeBusy_ += ev.duration;
        // The compute stream runs in order, so its busy intervals
        // arrive ascending and merge into the cover as they come.
        std::vector<Interval> &cover = s_.cover;
        if (finish > start) {
            if (!cover.empty() && start <= cover.back().hi)
                cover.back().hi = std::max(cover.back().hi, finish);
            else
                cover.push_back(Interval{start, finish});
        }
    } else {
        commBusy_ += ev.duration;
        if (finish > start) {
            s_.channelQueries[chan - 1].push_back(s_.queries.size());
            s_.queries.push_back(Interval{start, finish});
            s_.queryCategory.push_back(ev.category);
        }
    }
    return start;
}

void
Splicer::fillReport(PerfReport &report)
{
    // Each cursor ends at its channel's latest finish, so the makespan
    // (where the iteration-end barrier starts) is the max cursor.
    report.iterationTime =
        std::max(cursors_[0], std::max(cursors_[1], cursors_[2]));
    report.serializedTime = computeBusy_ + commBusy_;
    report.computeTime = computeBusy_;
    report.commTime = commBusy_;

    // A channel's queries start in ascending order, as the sweep needs.
    for (const std::vector<size_t> &chan : s_.channelQueries)
        coveredLengthsInto(s_.cover, s_.queries, chan, s_.covered);

    // The aggregate and the per-category exposed sums add the same
    // terms in node order; both breakdowns land in enum order.
    double exposed[kNumCategories] = {};
    bool exposed_touched[kNumCategories] = {};
    double total = 0.0;
    for (size_t q = 0; q < s_.queries.size(); ++q) {
        const double term =
            (s_.queries[q].hi - s_.queries[q].lo) - s_.covered[q];
        const size_t c = static_cast<size_t>(s_.queryCategory[q]);
        total += term;
        exposed[c] += term;
        exposed_touched[c] = true;
    }
    report.exposedCommTime = total;
    for (size_t c = 0; c < kNumCategories; ++c) {
        const EventCategory cat = static_cast<EventCategory>(c);
        if (serializedTouched_[c])
            report.serializedBreakdown.emplace_back(cat, serialized_[c]);
        if (exposed_touched[c])
            report.exposedBreakdown.emplace_back(cat, exposed[c]);
    }
}

} // namespace

void
buildSegmentSet(
    const ModelDesc &desc,
    const std::vector<EvalContext::LayerCosts> &costs,
    const std::vector<int> &templateLayers,
    const std::vector<uint32_t> &templateCounts,
    const std::vector<std::vector<ResolvedCommOp>> &shapeOps,
    bool backwardPass, bool prefetch, SegmentSet &out)
{
    const size_t num_layers = static_cast<size_t>(desc.graph.numLayers());
    out.events.clear();
    out.deps.clear();
    out.segs.clear();
    out.segs.reserve(templateLayers.size());

    TemplateEmitter em(out);
    for (int i : templateLayers) {
        const EvalContext::LayerCosts &lc = costs[static_cast<size_t>(i)];
        SegmentSpec spec;
        spec.graph = &desc.graph;
        spec.idx = i;
        spec.ordinal = backwardPass
            ? 2 * num_layers - 1 - static_cast<size_t>(i)
            : static_cast<size_t>(i);
        spec.consumers = lc.consumers;
        spec.numConsumers = lc.numConsumers;
        spec.computeTime = backwardPass ? lc.bwdTime : lc.fwdTime;
        spec.category = lc.category;
        spec.ops = &shapeOps[lc.shapeId];
        spec.prefetch = prefetch;
        spec.backward = backwardPass;
        emitLayerSegment(spec, em);
    }

    out.expandedEvents = 0;
    for (size_t t = 0; t < templateCounts.size(); ++t) {
        out.expandedEvents += size_t{templateCounts[t]} *
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

    // Size the node buffers once, then fill through raw pointers.
    // Each set knows what its class expands to.
    size_t total_nodes = 0;
    for (size_t c = 0; c < kNumLayerClasses; ++c) {
        for (const SegmentSet *set : {sets.fwd[c], sets.bwd[c]}) {
            if (set != nullptr)
                total_nodes += set->expandedEvents;
        }
    }
    s.finish.resize(total_nodes);
    if (timeline != nullptr) // With room for the iteration-end barrier.
        timeline->events.reserve(total_nodes + 1);
    s.fwdOut.assign(nl, -1);
    s.bwdOut.assign(nl, -1);
    // Indexed by emission ordinal; every slot is written before any
    // dependency reads it, so no fill value is needed.
    s.computeIds.resize(withBackward ? 2 * nl : nl);
    s.cover.clear();
    s.queries.clear();
    s.queryCategory.clear();
    for (std::vector<size_t> &chan : s.channelQueries)
        chan.clear();

    Splicer splicer(s, backgroundChannel, timeline);
    for (size_t i = 0; i < nl; ++i) {
        const EvalContext::LayerCosts &lc = costs[i];
        splicer.expand(*sets.fwd[static_cast<size_t>(lc.cls)], lc,
                       static_cast<int>(i), i, false);
    }
    if (withBackward) {
        for (size_t i = nl; i-- > 0;) {
            const EvalContext::LayerCosts &lc = costs[i];
            splicer.expand(*sets.bwd[static_cast<size_t>(lc.cls)], lc,
                           static_cast<int>(i), 2 * nl - 1 - i, true);
        }
    }
    splicer.fillReport(report);
}

} // namespace madmax
