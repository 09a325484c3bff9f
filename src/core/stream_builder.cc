#include "core/stream_builder.hh"

namespace madmax
{

namespace
{

/**
 * What one per-layer segment emission reads: the layer's compute cost
 * and label, its resolved collectives, and the graph topology for
 * data / gradient dependencies (consumer lists precomputed by the
 * EvalContext).
 */
struct SegmentSpec
{
    const ModelGraph *graph = nullptr;
    int idx = 0;
    size_t ordinal = 0; ///< Whole-graph emission ordinal.
    const int *consumers = nullptr;
    uint32_t numConsumers = 0;
    const std::string *computeName = nullptr;
    double computeTime = 0.0;
    EventCategory category = EventCategory::Other;
    const std::vector<ResolvedCommOp> *ops = nullptr;
    bool prefetch = false;
    bool backward = false;
};

/**
 * Emits segments symbolically into a SegmentSet arena
 * (buildSegmentSet). Whether a FwdOut/BwdOut/ComputeAt dependency
 * exists is decided here, from emission order alone: in the forward
 * pass layer d's output exists iff d < idx (dependencies point
 * backwards), in the backward pass every forward output exists and
 * consumer c's backward output exists iff c > idx; the compute-event
 * count before a segment is its whole-graph emission ordinal (layer
 * i forward, 2N-1-i backward), given per segment since a class's set
 * skips the other classes' layers. That is why the arena is
 * plan-independent.
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
        seg.eventBegin = static_cast<uint32_t>(set_.events.size());
        seg.depBegin = static_cast<uint32_t>(set_.deps.size());
        seg.layer = idx;
        set_.segs.push_back(seg);
    }

    size_t computeCountBefore() const { return ordinal_; }

    void clearDeps() { staged_ = 0; }

    void depLocal(int32_t local)
    {
        // Fold to an arena index so the splicer resolves it with the
        // run's node shift alone.
        stage(SymDep{SymDep::Kind::Local,
                     static_cast<int32_t>(segEventBase_) + local});
    }

    void depComputeBack(size_t k)
    {
        // Fold "k-th most recent compute" to the absolute emission
        // ordinal it names — ordinal arithmetic is plan-independent.
        stage(SymDep{SymDep::Kind::ComputeAt,
                     static_cast<int32_t>(computeCountBefore() - k)});
    }

    bool depFwdOut(int layer)
    {
        if (!backward_ && layer >= idx_)
            return false;
        stage(SymDep{SymDep::Kind::FwdOut, layer});
        return true;
    }

    bool depBwdOut(int layer)
    {
        if (!backward_ || layer <= idx_)
            return false;
        stage(SymDep{SymDep::Kind::BwdOut, layer});
        return true;
    }

    int32_t addEvent(const std::string *name, StreamKind stream,
                     EventCategory category, double duration,
                     bool blocking, CollAlgo algo)
    {
        EventNode ev;
        ev.name = name;
        ev.stream = stream;
        ev.category = category;
        ev.algo = algo;
        ev.blocking = blocking;
        ev.backward = backward_;
        ev.layerIdx = idx_;
        ev.duration = duration;
        // Arena-relative cumulative offset — exactly what the splicer
        // needs, since instantiated dependency lists keep arena order.
        ev.depsBegin =
            static_cast<uint32_t>(set_.deps.size() - staged_);
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
        set_.segs.back().outputLocal = outLocal;
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
        pre_ids.push_back(em.addEvent(&op.tag,
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
    int32_t cid = em.addEvent(s.computeName, StreamKind::Compute,
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
        int32_t eid = em.addEvent(&op.tag, StreamKind::Communication,
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

} // namespace

void
buildSegmentSet(
    const ModelDesc &desc,
    const std::vector<EvalContext::LayerCosts> &costs,
    const std::vector<int> &layers,
    const std::vector<std::vector<ResolvedCommOp>> &perLayerOps,
    bool backwardPass, bool prefetch, SegmentSet &out)
{
    const size_t num_layers = static_cast<size_t>(desc.graph.numLayers());
    const size_t count = layers.size();
    out.events.clear();
    out.deps.clear();
    out.segs.clear();
    out.segs.reserve(count + 1);

    // Emit in emission order — ascending forward, descending backward
    // — so consecutive same-class layers are consecutive arena ranges.
    TemplateEmitter em(out);
    for (size_t e = 0; e < count; ++e) {
        const size_t k = backwardPass ? count - 1 - e : e;
        const int i = layers[k];
        const EvalContext::LayerCosts &lc = costs[static_cast<size_t>(i)];
        SegmentSpec spec;
        spec.graph = &desc.graph;
        spec.idx = i;
        spec.ordinal = backwardPass
            ? 2 * num_layers - 1 - static_cast<size_t>(i)
            : static_cast<size_t>(i);
        spec.consumers = lc.consumers;
        spec.numConsumers = lc.numConsumers;
        spec.computeName = backwardPass ? &lc.bwdName : lc.fwdName;
        spec.computeTime = backwardPass ? lc.bwdTime : lc.fwdTime;
        spec.category = lc.category;
        spec.ops = &perLayerOps[k];
        spec.prefetch = prefetch;
        spec.backward = backwardPass;
        emitLayerSegment(spec, em);
    }

    SegmentSet::Seg sentinel;
    sentinel.eventBegin = static_cast<uint32_t>(out.events.size());
    sentinel.depBegin = static_cast<uint32_t>(out.deps.size());
    out.segs.push_back(sentinel);
}

void
spliceSegmentRuns(const SpliceRun *runs, size_t numRuns, int numLayers,
                  bool withBackward, EventGraph &graph,
                  std::vector<int32_t> &fwdOut,
                  std::vector<int32_t> &bwdOut,
                  std::vector<int32_t> &computeIds)
{
    const size_t nl = static_cast<size_t>(numLayers);

    // Size the whole graph once (segments plus the iteration-end
    // barrier, which depends on every other node), then fill through
    // raw pointers — no per-segment vector bookkeeping. Run extents
    // come straight from the arena offsets.
    size_t total_nodes = 0;
    size_t total_deps = 0;
    for (size_t r = 0; r < numRuns; ++r) {
        const SegmentSet::Seg *segs = runs[r].set->segs.data();
        const uint32_t lo = runs[r].first;
        const uint32_t hi = runs[r].first + runs[r].count;
        total_nodes += segs[hi].eventBegin - segs[lo].eventBegin;
        total_deps += segs[hi].depBegin - segs[lo].depBegin;
    }
    graph.nodes.resize(total_nodes + 1);
    graph.deps.resize(total_deps + total_nodes);
    fwdOut.assign(nl, -1);
    bwdOut.assign(nl, -1);
    // Indexed by emission ordinal; every slot is written in a run's
    // pass 1 before any dependency reads it, so no fill value needed.
    computeIds.resize(withBackward ? 2 * nl : nl);

    EventNode *nodes = graph.nodes.data();
    int32_t *deps = graph.deps.data();
    size_t node_pos = 0;
    size_t dep_pos = 0;
    for (size_t r = 0; r < numRuns; ++r) {
        const SegmentSet &set = *runs[r].set;
        const SegmentSet::Seg *segs = set.segs.data();
        const uint32_t first = runs[r].first;
        const uint32_t last = runs[r].first + runs[r].count;
        const uint32_t ev_begin = segs[first].eventBegin;
        const size_t run_nodes = segs[last].eventBegin - ev_begin;
        const uint32_t dp_begin = segs[first].depBegin;
        const size_t run_deps = segs[last].depBegin - dp_begin;

        // Bulk node copy — one contiguous read stream for the whole
        // run, with a run-constant dependency-offset shift (the
        // arena's cumulative offsets and the graph's concrete ones
        // differ by the same amount for every event of the run).
        const EventNode *src = set.events.data() + ev_begin;
        const uint32_t dep_shift =
            static_cast<uint32_t>(dep_pos) - dp_begin;
        for (size_t e = 0; e < run_nodes; ++e) {
            EventNode &dst = nodes[node_pos + e];
            dst = src[e];
            dst.depsBegin += dep_shift;
        }

        // Pass 1: record every segment's visible output and compute
        // event id — pure index arithmetic, independent of the
        // dependency sweep. computeIds is indexed by emission ordinal
        // (layer i forward, 2N-1-i backward).
        const bool bwd = runs[r].backward;
        const int32_t node_shift = static_cast<int32_t>(node_pos) -
                                   static_cast<int32_t>(ev_begin);
        int32_t *outArr = (bwd ? bwdOut : fwdOut).data();
        for (uint32_t j = first; j < last; ++j) {
            const int32_t base =
                node_shift + static_cast<int32_t>(segs[j].eventBegin);
            const size_t layer = static_cast<size_t>(segs[j].layer);
            outArr[layer] = base + segs[j].outputLocal;
            computeIds[bwd ? 2 * nl - 1 - layer : layer] =
                base + segs[j].computeLocal;
        }

        // Pass 2: one flat, branch-predictable sweep resolves the
        // run's whole symbolic-dependency range — every kind is a
        // single indexed load or add against state pass 1 (or an
        // earlier run) already filled; dependencies only ever point
        // at earlier emissions, so nothing here races the fill.
        const SymDep *sym = set.deps.data();
        int32_t *out = deps + dep_pos;
        const uint32_t dp_end = segs[last].depBegin;
        for (uint32_t k = dp_begin; k < dp_end; ++k) {
            int32_t resolved = 0;
            switch (sym[k].kind) {
              case SymDep::Kind::Local:
                resolved = node_shift + sym[k].value;
                break;
              case SymDep::Kind::FwdOut:
                resolved = fwdOut[static_cast<size_t>(sym[k].value)];
                break;
              case SymDep::Kind::BwdOut:
                resolved = bwdOut[static_cast<size_t>(sym[k].value)];
                break;
              case SymDep::Kind::ComputeAt:
                resolved =
                    computeIds[static_cast<size_t>(sym[k].value)];
                break;
            }
            out[k - dp_begin] = resolved;
        }
        node_pos += run_nodes;
        dep_pos += run_deps;
    }

    // Iteration-end barrier: a zero-duration compute event depending
    // on every other node, so non-blocking gradient collectives still
    // bound the makespan.
    EventNode &end = nodes[total_nodes];
    end.name = &iterEndEventName();
    end.stream = StreamKind::Compute;
    end.category = EventCategory::Other;
    end.algo = CollAlgo::None; // nodes[] is reused — clear explicitly.
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
