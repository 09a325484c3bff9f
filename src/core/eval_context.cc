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
        std::vector<int> &members =
            classLayers_[static_cast<size_t>(lc.cls)];
        lc.classIndex = static_cast<uint32_t>(members.size());
        members.push_back(i);
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
    // The [5][5x5] table indexing assumes exactly five LayerClass and
    // five Strategy values; a new enumerator must grow tables_
    // alongside these or the lookups write past its end.
    static_assert(static_cast<size_t>(LayerClass::MoE) + 1 == kNumClasses,
                  "strategy tables assume 5 LayerClass values");
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
EvalContext::buildStrategyTable(StrategyTable &table, LayerClass cls,
                                HierStrategy hs) const
{
    std::lock_guard<std::mutex> lock(buildMutex_);
    if (table.ready.load(std::memory_order_acquire))
        return; // Another thread built it while we waited.

    // planLayer reads only the planned layer's class strategy, so a
    // plan mapping @p cls to @p hs yields exactly what any real plan
    // doing the same gets for this class's layers.
    ParallelPlan plan;
    plan.set(cls, hs);
    CommPlanner planner(*desc_, *task_, plan, cluster());

    const std::vector<int> &layers = classLayers_[static_cast<size_t>(cls)];
    std::vector<std::vector<ResolvedCommOp>> per_layer(layers.size());
    for (size_t k = 0; k < layers.size(); ++k) {
        std::vector<ResolvedCommOp> &resolved = per_layer[k];
        for (CommOp &op : planner.planLayer(layers[k])) {
            CollectiveEstimate est =
                collectiveEstimate(op.kind, op.scope, op.bytes);
            if (est.seconds <= 0.0)
                continue;
            resolved.push_back(ResolvedCommOp{
                op.phase, op.position, op.kind, commCategoryOf(op.kind),
                op.blocking, est.seconds, std::move(op.tag), est.algo});
        }
    }
    table.perLayer = std::move(per_layer);
    table.ready.store(true, std::memory_order_release);
}

EvalContext::StrategyTable &
EvalContext::strategyTable(LayerClass cls, HierStrategy hs) const
{
    StrategyTable &table = tables_[static_cast<size_t>(cls)][encode(hs)];
    if (!table.ready.load(std::memory_order_acquire))
        buildStrategyTable(table, cls, hs);
    return table;
}

const EvalContext::Segments &
EvalContext::segments(LayerClass cls, HierStrategy hs,
                      bool prefetch) const
{
    StrategyTable &table = strategyTable(cls, hs);
    Segments &segs = table.segs[prefetch ? 1 : 0];
    if (!segs.ready.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(buildMutex_);
        if (!segs.ready.load(std::memory_order_acquire)) {
            const std::vector<int> &layers =
                classLayers_[static_cast<size_t>(cls)];
            buildSegmentSet(*desc_, costs_, layers, table.perLayer,
                            false, prefetch, segs.fwd);
            if (task_->needsBackward()) {
                buildSegmentSet(*desc_, costs_, layers, table.perLayer,
                                true, prefetch, segs.bwd);
            }
            segs.ready.store(true, std::memory_order_release);
        }
    }
    return segs;
}

const std::vector<ResolvedCommOp> &
EvalContext::plannedOps(int idx, HierStrategy hs) const
{
    const LayerCosts &lc = costs_[static_cast<size_t>(idx)];
    return strategyTable(lc.cls, hs).perLayer[lc.classIndex];
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
    // construction only for (class, strategy) pairs this context has
    // never seen); every layer's segment then splices straight from
    // cache.
    const Segments *by_class[kNumClasses] = {};
    for (size_t c = 0; c < kNumClasses; ++c) {
        if (!classLayers_[c].empty()) {
            const LayerClass cls = static_cast<LayerClass>(c);
            by_class[c] =
                &segments(cls, plan.strategyFor(cls), plan.fsdpPrefetch);
        }
    }

    // Maximal same-class layer runs, then one fused splice: a class's
    // consecutive layers have consecutive class indices, so every run
    // is a contiguous range of that class's packed arena (GPT-3's
    // ~190-layer transformer stack is a single run per pass) and the
    // splice cost scales with class alternations, not layer count.
    // Backward sets hold the class's layers in emission order
    // (descending), so a descending run starting at layer i maps to
    // an ascending set range starting at |L(cls)|-1-classIndex(i).
    std::vector<SpliceRun> &runs = s.runs;
    runs.clear();
    for (int i = 0; i < num_layers;) {
        const LayerCosts &lc = costs_[static_cast<size_t>(i)];
        int j = i + 1;
        while (j < num_layers &&
               costs_[static_cast<size_t>(j)].cls == lc.cls)
            ++j;
        runs.push_back(
            SpliceRun{&by_class[static_cast<size_t>(lc.cls)]->fwd,
                      lc.classIndex, static_cast<uint32_t>(j - i),
                      false});
        i = j;
    }
    if (backward) {
        for (int i = num_layers - 1; i >= 0;) {
            const LayerCosts &lc = costs_[static_cast<size_t>(i)];
            const size_t c = static_cast<size_t>(lc.cls);
            int j = i - 1;
            while (j >= 0 && costs_[static_cast<size_t>(j)].cls == lc.cls)
                --j;
            const uint32_t class_size =
                static_cast<uint32_t>(classLayers_[c].size());
            runs.push_back(SpliceRun{&by_class[c]->bwd,
                                     class_size - 1 - lc.classIndex,
                                     static_cast<uint32_t>(i - j), true});
            i = j;
        }
    }
    spliceSegmentRuns(runs.data(), runs.size(), num_layers, backward,
                      s.graph, s.fwdOut, s.bwdOut, s.computeIds);
}

} // namespace madmax
