#include "core/eval_context.hh"

#include <cstring>
#include <utility>

#include "core/layer_processor.hh"
#include "core/overlap_simulator.hh"
#include "core/stream_builder.hh"
#include "util/logging.hh"

namespace madmax
{

EventCategory
commCategoryOf(Collective kind)
{
    switch (kind) {
      case Collective::AllReduce: return EventCategory::AllReduce;
      case Collective::AllGather: return EventCategory::AllGather;
      case Collective::ReduceScatter: return EventCategory::ReduceScatter;
      case Collective::All2All: return EventCategory::All2All;
      case Collective::Broadcast: return EventCategory::Other;
    }
    panic("commCategoryOf: unknown Collective");
}

EvalContext::EvalContext(const PerfModel &model, const ModelDesc &desc,
                         const TaskSpec &task)
    : model_(&model), desc_(&desc), task_(&task),
      taskName_(task.toString()),
      collectives_(model.cluster(), model.options().latency,
                   model.options().allReduceAlgorithm)
{
    // LayerProcessor validates the cluster and the model once; every
    // plan evaluated through this context reuses that validation.
    LayerProcessor processor(cluster(), desc, options().smModel);

    const int num_layers = desc.graph.numLayers();
    costs_.resize(static_cast<size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
        const Layer &layer = desc.graph.layer(i);
        LayerCosts &lc = costs_[static_cast<size_t>(i)];
        lc.fwdTime = processor.forwardTime(layer, task);
        lc.bwdTime = processor.backwardTime(layer, task);
        lc.category = processor.categoryOf(layer);
        lc.fwdName = &layer.name();
        lc.bwdName = layer.name() + "'";
        lc.cls = layer.layerClass();
    }

    // Consumer lists, flattened in two counting passes: layer d's
    // consumers are the later layers listing d as a dependency, each
    // once, ascending. `last` dedups a layer listing d twice.
    const size_t n = static_cast<size_t>(num_layers);
    std::vector<uint32_t> begin(n + 1, 0);
    std::vector<int> last(n, -1);
    for (int i = 0; i < num_layers; ++i) {
        for (int d : desc.graph.deps(i)) {
            if (std::exchange(last[static_cast<size_t>(d)], i) != i)
                ++begin[static_cast<size_t>(d) + 1];
        }
    }
    for (size_t d = 0; d < n; ++d)
        begin[d + 1] += begin[d];
    consumerIds_.resize(begin[n]);
    std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
    last.assign(n, -1);
    for (int i = 0; i < num_layers; ++i) {
        for (int d : desc.graph.deps(i)) {
            const size_t s = static_cast<size_t>(d);
            if (std::exchange(last[s], i) != i)
                consumerIds_[fill[s]++] = i;
        }
    }
    for (size_t i = 0; i < n; ++i) {
        costs_[i].consumers = consumerIds_.data() + begin[i];
        costs_[i].numConsumers = begin[i + 1] - begin[i];
    }
}

size_t
EvalContext::encode(HierStrategy hs)
{
    // The 5x5 table indexing assumes exactly five Strategy values; a
    // new enumerator must grow the strategies_ array alongside this
    // multiplier or encode() writes past its end.
    static_assert(static_cast<size_t>(Strategy::MP) == 4,
                  "strategy table encoding assumes 5 Strategy values");
    return static_cast<size_t>(hs.intra) * 5 +
        static_cast<size_t>(hs.inter);
}

CollectiveEstimate
EvalContext::collectiveEstimate(Collective kind, CommScope scope,
                                double bytes) const
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(bytes), "double is 64-bit");
    std::memcpy(&bits, &bytes, sizeof(bits));
    auto key = std::make_tuple(static_cast<int>(kind),
                               static_cast<int>(scope), bits);
    auto it = collectiveTable_.find(key);
    if (it != collectiveTable_.end())
        return it->second;
    CollectiveEstimate est = collectives_.estimate(kind, scope, bytes);
    collectiveTable_.emplace(key, est);
    return est;
}

size_t
EvalContext::collectiveTableSize() const
{
    std::lock_guard<std::mutex> lock(buildMutex_);
    return collectiveTable_.size();
}

void
EvalContext::buildStrategyTable(size_t slot, HierStrategy hs) const
{
    std::lock_guard<std::mutex> lock(buildMutex_);
    StrategyTable &table = strategies_[slot];
    if (table.ready.load(std::memory_order_acquire))
        return; // Another thread built it while we waited.

    // One planner pass covers every layer: a plan that maps all
    // classes to @p hs makes strategyFor(cls) == hs for each layer, so
    // planLayer yields exactly what any real plan assigning @p hs to
    // that layer's class would get.
    ParallelPlan uniform;
    for (LayerClass cls : {LayerClass::SparseEmbedding,
                           LayerClass::DenseEmbedding,
                           LayerClass::BaseDense, LayerClass::Transformer,
                           LayerClass::MoE}) {
        uniform.set(cls, hs);
    }
    CommPlanner planner(*desc_, *task_, uniform, cluster());

    const int num_layers = desc_->graph.numLayers();
    std::vector<std::vector<ResolvedCommOp>> per_layer(
        static_cast<size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
        std::vector<ResolvedCommOp> resolved;
        for (CommOp &op : planner.planLayer(i)) {
            CollectiveEstimate est =
                collectiveEstimate(op.kind, op.scope, op.bytes);
            if (est.seconds <= 0.0)
                continue;
            resolved.push_back(ResolvedCommOp{
                op.phase, op.position, op.kind, commCategoryOf(op.kind),
                op.blocking, est.seconds, std::move(op.tag), est.algo});
        }
        per_layer[static_cast<size_t>(i)] = std::move(resolved);
    }
    table.perLayer = std::move(per_layer);
    table.ready.store(true, std::memory_order_release);
}

const EvalContext::StrategyTable &
EvalContext::strategyTable(HierStrategy hs) const
{
    const size_t slot = encode(hs);
    const StrategyTable &table = strategies_[slot];
    if (!table.ready.load(std::memory_order_acquire))
        buildStrategyTable(slot, hs);
    return table;
}

const EvalContext::Segments &
EvalContext::segments(HierStrategy hs, bool prefetch) const
{
    const StrategyTable &table = strategyTable(hs);
    Segments &segs = strategies_[encode(hs)].segs[prefetch ? 1 : 0];
    if (!segs.ready.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(buildMutex_);
        if (!segs.ready.load(std::memory_order_acquire)) {
            buildSegmentSet(*desc_, costs_, table.perLayer, false,
                            prefetch, segs.fwd);
            if (task_->needsBackward()) {
                buildSegmentSet(*desc_, costs_, table.perLayer, true,
                                prefetch, segs.bwd);
            }
            segs.ready.store(true, std::memory_order_release);
        }
    }
    return segs;
}

const std::vector<ResolvedCommOp> &
EvalContext::plannedOps(int idx, HierStrategy hs) const
{
    return strategyTable(hs).perLayer[static_cast<size_t>(idx)];
}

PerfReport
EvalContext::verdict(const ParallelPlan &plan) const
{
    return model_->verdict(*desc_, *task_, plan, taskName_);
}

namespace
{

/** The schedule-to-report assembly (everything but the optional
 *  Timeline). */
void
fillScheduleReport(PerfReport &report, const EventGraph &graph,
                   const FlatSchedule &sched)
{
    report.iterationTime = sched.makespan;
    report.serializedTime = sched.computeBusy + sched.commBusy;
    report.computeTime = sched.computeBusy;
    report.commTime = sched.commBusy;
    report.exposedCommTime = sched.exposedComm;

    // Per-category sums accumulate into fixed arrays in node order —
    // the same additions in the same order the per-node map
    // operator[] version performed, so every sum is bit-identical —
    // and land in the maps in ascending enum order afterwards (which
    // is also std::map's iteration order, so the maps come out
    // byte-identical too). A category's key exists iff a node touched
    // it, even when the touches summed to zero, hence the flags.
    constexpr size_t kNumCategories =
        static_cast<size_t>(EventCategory::Other) + 1;
    double serialized[kNumCategories] = {};
    double exposed[kNumCategories] = {};
    bool serialized_touched[kNumCategories] = {};
    bool exposed_touched[kNumCategories] = {};

    // One pass feeds both breakdowns (each accumulates per category in
    // node order, exactly as two passes would). The exposed terms come
    // from the same sweep that produced the aggregate
    // (sched.rawOverlap) — the second O(comm x compute) pass this used
    // to be is gone.
    const size_t n = graph.nodes.size();
    for (size_t i = 0; i < n; ++i) {
        const EventNode &node = graph.nodes[i];
        const size_t c = static_cast<size_t>(node.category);
        if (node.duration > 0.0) {
            serialized[c] += node.duration;
            serialized_touched[c] = true;
        }
        if (node.stream == StreamKind::Communication &&
            sched.finish[i] > sched.start[i]) {
            exposed[c] +=
                (sched.finish[i] - sched.start[i]) - sched.rawOverlap[i];
            exposed_touched[c] = true;
        }
    }
    for (size_t c = 0; c < kNumCategories; ++c) {
        const EventCategory cat = static_cast<EventCategory>(c);
        if (serialized_touched[c])
            report.serializedBreakdown.emplace(cat, serialized[c]);
        if (exposed_touched[c])
            report.exposedBreakdown.emplace(cat, exposed[c]);
    }
}

} // namespace

struct EvalContext::Scratch
{
    EventGraph graph;
    FlatSchedule sched;
    SweepScratch sweep;
    std::vector<SpliceRun> runs;
    std::vector<int32_t> fwdOut;
    std::vector<int32_t> bwdOut;
    std::vector<int32_t> computeIds;
};

PerfReport
EvalContext::evaluate(const ParallelPlan &plan) const
{
    PerfReport report = verdict(plan);
    if (!report.memory.fits() && !options().ignoreMemory)
        return report;

    // Constructed on a thread's first evaluation only, so threads that
    // never evaluate carry no buffers. Every call overwrites what it
    // reads, so state left by another context (or by a throw midway)
    // is harmless.
    static thread_local Scratch scratch;
    spliceGraph(scratch, plan);
    OverlapSimulator(options().backgroundCommChannel)
        .scheduleGraphInto(scratch.graph, scratch.sched, scratch.sweep);
    const EventGraph &graph = scratch.graph;
    const FlatSchedule &sched = scratch.sched;
    fillScheduleReport(report, graph, sched);

    if (options().keepTimeline) {
        const size_t n = graph.nodes.size();
        Timeline tl;
        tl.events.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            tl.events.push_back(ScheduledEvent{
                graph.materialize(i), sched.start[i], sched.finish[i]});
        }
        tl.makespan = sched.makespan;
        tl.computeBusy = sched.computeBusy;
        tl.commBusy = sched.commBusy;
        tl.exposedComm = sched.exposedComm;
        report.timeline = std::move(tl);
    }
    return report;
}

void
EvalContext::spliceGraph(Scratch &s, const ParallelPlan &plan) const
{
    const int num_layers = desc_->graph.numLayers();
    const bool backward = task_->needsBackward();

    // Resolve each present class's segment arenas once (template
    // construction only for strategies this context has never seen);
    // every layer's segment then splices straight from cache.
    const LayerClass all_classes[] = {
        LayerClass::SparseEmbedding, LayerClass::DenseEmbedding,
        LayerClass::BaseDense, LayerClass::Transformer, LayerClass::MoE};
    const Segments *by_class[5] = {};
    for (LayerClass cls : all_classes) {
        if (desc_->graph.hasClass(cls)) {
            by_class[static_cast<size_t>(cls)] =
                &segments(plan.strategyFor(cls), plan.fsdpPrefetch);
        }
    }

    // Maximal same-class layer runs, then one fused splice: every
    // run is a contiguous range of one strategy table's packed arena
    // (GPT-3's ~190-layer transformer stack is a single run per
    // pass), so the splice cost scales with class alternations, not
    // layer count. Backward sets are stored in emission order (layer
    // N-1..0), so a descending layer run maps to an ascending set
    // range starting at N-1-i.
    std::vector<SpliceRun> &runs = s.runs;
    runs.clear();
    for (int i = 0; i < num_layers;) {
        const LayerClass cls = costs_[static_cast<size_t>(i)].cls;
        int j = i + 1;
        while (j < num_layers &&
               costs_[static_cast<size_t>(j)].cls == cls)
            ++j;
        runs.push_back(
            SpliceRun{&by_class[static_cast<size_t>(cls)]->fwd,
                      static_cast<uint32_t>(i),
                      static_cast<uint32_t>(j - i), false});
        i = j;
    }
    if (backward) {
        for (int i = num_layers - 1; i >= 0;) {
            const LayerClass cls = costs_[static_cast<size_t>(i)].cls;
            int j = i - 1;
            while (j >= 0 && costs_[static_cast<size_t>(j)].cls == cls)
                --j;
            runs.push_back(SpliceRun{
                &by_class[static_cast<size_t>(cls)]->bwd,
                static_cast<uint32_t>(num_layers - 1 - i),
                static_cast<uint32_t>(i - j), true});
            i = j;
        }
    }
    spliceSegmentRuns(runs.data(), runs.size(), num_layers, backward,
                      s.graph, s.fwdOut, s.bwdOut, s.computeIds);
}

} // namespace madmax
