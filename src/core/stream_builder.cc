#include "core/stream_builder.hh"

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
        segDepBase_ = set_.deps.size();
        staged_ = 0;
        SegmentSet::Seg seg;
        seg.eventBegin = static_cast<uint32_t>(segEventBase_);
        seg.depBegin = static_cast<uint32_t>(segDepBase_);
        set_.segs.push_back(seg);
    }

    size_t computeCountBefore() const { return ordinal_; }

    void clearDeps() { staged_ = 0; }

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
        EventNode ev;
        ev.suffix = suffix;
        ev.stream = stream;
        ev.category = category;
        ev.algo = algo;
        ev.blocking = blocking;
        ev.backward = backward_;
        ev.duration = duration;
        // Segment-relative offset: the splicer adds the position the
        // segment's dependencies land at in the concrete graph.
        ev.depsBegin = static_cast<uint32_t>(set_.deps.size() - staged_ -
                                             segDepBase_);
        ev.depsCount = static_cast<uint32_t>(staged_);
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
        seg.numDeps = static_cast<uint32_t>(set_.deps.size() - segDepBase_);
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
    size_t segDepBase_ = 0;   ///< First arena dep of this segment.
    size_t staged_ = 0; ///< Symbolic deps staged since clearDeps().
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
        em.clearDeps();
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
    em.clearDeps();
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
        em.clearDeps();
        em.depLocal(out);
        int32_t eid = em.addEvent(op.suffix, StreamKind::Communication,
                                  op.category, op.duration,
                                  op.blocking, op.algo);
        if (op.blocking)
            out = eid;
    }
    em.finishSegment(out);
}

/** The iteration-end barrier's trace label, in stable storage so
 *  spliced nodes can borrow it. */
const std::string &
iterEndEventName()
{
    static const std::string name = "iter_end";
    return name;
}

/**
 * Expand layer @p layer's template segment from @p set at the graph's
 * current end (@p nodePos / @p depPos, advanced past it): copy its
 * nodes with the layer's index and name written in, resolve its
 * symbolic dependencies against @p fwdOut / @p bwdOut /
 * @p computeIds (entries of earlier emissions, all filled already),
 * and record its visible output and compute event.
 */
inline void
expandSegment(const SegmentSet &set, const EvalContext::LayerCosts &lc,
              int layer, size_t ordinal, bool backward, EventNode *nodes,
              int32_t *deps, size_t &nodePos, size_t &depPos,
              int32_t *fwdOut, int32_t *bwdOut, int32_t *computeIds)
{
    // A local copy: the node and dependency stores below could alias
    // a reference's fields and force reloads.
    const SegmentSet::Seg seg = set.segs[lc.templateId];
    const int32_t base = static_cast<int32_t>(nodePos);
    const uint32_t dep_base = static_cast<uint32_t>(depPos);

    const EventNode *src = set.events.data() + seg.eventBegin;
    for (uint32_t e = 0; e < seg.numEvents; ++e) {
        EventNode &dst = nodes[nodePos + e];
        dst = src[e];
        dst.name = lc.name;
        dst.layerIdx = layer;
        dst.depsBegin += dep_base;
    }

    const SymDep *sym = set.deps.data() + seg.depBegin;
    const int32_t l = static_cast<int32_t>(layer);
    const int32_t ord = static_cast<int32_t>(ordinal);
    int32_t *out = deps + depPos;
    for (uint32_t k = 0; k < seg.numDeps; ++k) {
        const int32_t v = sym[k].value;
        switch (sym[k].kind) {
          case SymDep::Kind::Local: out[k] = base + v; break;
          case SymDep::Kind::FwdOut: out[k] = fwdOut[l + v]; break;
          case SymDep::Kind::BwdOut: out[k] = bwdOut[l + v]; break;
          case SymDep::Kind::ComputeAt: out[k] = computeIds[ord + v]; break;
        }
    }

    (backward ? bwdOut : fwdOut)[layer] = base + seg.outputLocal;
    computeIds[ordinal] = base + seg.computeLocal;
    nodePos += seg.numEvents;
    depPos += seg.numDeps;
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
    out.expandedDeps = 0;
    for (size_t t = 0; t < templateCounts.size(); ++t) {
        out.expandedEvents += size_t{templateCounts[t]} *
            out.segs[t].numEvents;
        out.expandedDeps += size_t{templateCounts[t]} * out.segs[t].numDeps;
    }
}

void
spliceSegments(const PlanSegments &sets,
               const EvalContext::LayerCosts *costs, int numLayers,
               bool withBackward, EventGraph &graph,
               std::vector<int32_t> &fwdOut, std::vector<int32_t> &bwdOut,
               std::vector<int32_t> &computeIds)
{
    const size_t nl = static_cast<size_t>(numLayers);

    // Size the whole graph once (segments plus the iteration-end
    // barrier, which depends on every other node), then fill through
    // raw pointers. Each set knows what its class expands to.
    size_t total_nodes = 0;
    size_t total_deps = 0;
    for (size_t c = 0; c < kNumLayerClasses; ++c) {
        for (const SegmentSet *set : {sets.fwd[c], sets.bwd[c]}) {
            if (set != nullptr) {
                total_nodes += set->expandedEvents;
                total_deps += set->expandedDeps;
            }
        }
    }
    graph.nodes.resize(total_nodes + 1);
    graph.deps.resize(total_deps + total_nodes);
    fwdOut.assign(nl, -1);
    bwdOut.assign(nl, -1);
    // Indexed by emission ordinal; every slot is written before any
    // dependency reads it, so no fill value is needed.
    computeIds.resize(withBackward ? 2 * nl : nl);

    EventNode *nodes = graph.nodes.data();
    int32_t *deps = graph.deps.data();
    size_t node_pos = 0;
    size_t dep_pos = 0;
    for (size_t i = 0; i < nl; ++i) {
        const EvalContext::LayerCosts &lc = costs[i];
        expandSegment(*sets.fwd[static_cast<size_t>(lc.cls)], lc,
                      static_cast<int>(i), i, false, nodes, deps,
                      node_pos, dep_pos, fwdOut.data(), bwdOut.data(),
                      computeIds.data());
    }
    if (withBackward) {
        for (size_t i = nl; i-- > 0;) {
            const EvalContext::LayerCosts &lc = costs[i];
            expandSegment(*sets.bwd[static_cast<size_t>(lc.cls)], lc,
                          static_cast<int>(i), 2 * nl - 1 - i, true,
                          nodes, deps, node_pos, dep_pos, fwdOut.data(),
                          bwdOut.data(), computeIds.data());
        }
    }

    // Iteration-end barrier: a zero-duration compute event depending
    // on every other node, so non-blocking gradient collectives still
    // bound the makespan.
    EventNode &end = nodes[total_nodes];
    end.name = &iterEndEventName();
    end.suffix = NameSuffix::None; // nodes[] is reused — clear
    end.algo = CollAlgo::None;     // every field explicitly.
    end.stream = StreamKind::Compute;
    end.category = EventCategory::Other;
    end.blocking = true;
    end.backward = withBackward;
    end.layerIdx = -1;
    end.duration = 0.0;
    end.depsBegin = static_cast<uint32_t>(dep_pos);
    end.depsCount = static_cast<uint32_t>(total_nodes);
    for (size_t i = 0; i < total_nodes; ++i)
        deps[dep_pos + i] = static_cast<int32_t>(i);
}

} // namespace madmax
