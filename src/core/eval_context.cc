#include "core/eval_context.hh"

#include <algorithm>
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
      memoryTerms_(model.memoryModel().terms(desc)),
      collectives_(model.cluster(), model.options().latency,
                   model.options().allReduceAlgorithm)
{
    // LayerProcessor validates the cluster and the model once; every
    // plan evaluated through this context reuses that validation.
    LayerProcessor processor(cluster(), desc, options().smModel);

    // Shapes: a layer's costs are a pure function of its shape, so
    // only each shape's first layer is priced.
    const ModelGraph &graph = desc.graph;
    const int num_layers = graph.numLayers();
    costs_.resize(static_cast<size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
        const Layer &layer = graph.layer(i);
        LayerCosts &lc = costs_[static_cast<size_t>(i)];
        lc.cls = layer.layerClass();
        std::vector<int> &shapes =
            classes_[static_cast<size_t>(lc.cls)].shapeLayers;
        uint32_t shape = 0;
        while (shape < shapes.size() &&
               !layer.sameShape(graph.layer(shapes[shape])))
            ++shape;
        if (shape == shapes.size()) {
            shapes.push_back(i);
            lc.fwdTime = processor.forwardTime(layer, task);
            lc.bwdTime = processor.backwardTime(layer, task);
            lc.category = processor.categoryOf(layer);
        } else {
            const LayerCosts &rep =
                costs_[static_cast<size_t>(shapes[shape])];
            lc.fwdTime = rep.fwdTime;
            lc.bwdTime = rep.bwdTime;
            lc.category = rep.category;
        }
        lc.shapeId = shape;
        lc.name = &layer.name();
    }

    // Consumer lists, flattened in two counting passes: layer d's
    // consumers are the later layers listing d as a dependency, each
    // once, ascending. `last` dedups a layer listing d twice.
    const size_t n = static_cast<size_t>(num_layers);
    std::vector<uint32_t> begin(n + 1, 0);
    std::vector<int> last(n, -1);
    for (int i = 0; i < num_layers; ++i) {
        for (int d : graph.deps(i)) {
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
        for (int d : graph.deps(i)) {
            const size_t s = static_cast<size_t>(d);
            if (std::exchange(last[s], i) != i)
                consumerIds_[fill[s]++] = i;
        }
    }
    for (size_t i = 0; i < n; ++i) {
        costs_[i].consumers = consumerIds_.data() + begin[i];
        costs_[i].numConsumers = begin[i + 1] - begin[i];
    }

    // Templates: everything a layer's segments depend on besides its
    // shape, in relative form (see core/segment_template.hh).
    for (int i = 0; i < num_layers; ++i) {
        LayerCosts &lc = costs_[static_cast<size_t>(i)];
        ClassLayout &cl = classes_[static_cast<size_t>(lc.cls)];
        uint32_t t = 0;
        while (t < cl.templateLayers.size() &&
               !sameTemplate(i, cl.templateLayers[t]))
            ++t;
        if (t == cl.templateLayers.size()) {
            cl.templateLayers.push_back(i);
            cl.templateCounts.push_back(0);
        }
        ++cl.templateCounts[t];
        lc.templateId = t;
    }
}

bool
EvalContext::sameTemplate(int a, int b) const
{
    const LayerCosts &la = costs_[static_cast<size_t>(a)];
    const LayerCosts &lb = costs_[static_cast<size_t>(b)];
    if (la.shapeId != lb.shapeId || std::min(a, 2) != std::min(b, 2) ||
        la.numConsumers != lb.numConsumers)
        return false;
    for (uint32_t k = 0; k < la.numConsumers; ++k) {
        if (la.consumers[k] - a != lb.consumers[k] - b)
            return false;
    }
    const std::vector<int> &da = desc_->graph.deps(a);
    const std::vector<int> &db = desc_->graph.deps(b);
    if (da.size() != db.size())
        return false;
    for (size_t k = 0; k < da.size(); ++k) {
        if (a - da[k] != b - db[k])
            return false;
    }
    return true;
}

size_t
EvalContext::encode(HierStrategy hs)
{
    // The [class][5x5] table indexing assumes exactly five Strategy
    // values; a new enumerator must grow tables_ alongside it or the
    // lookups write past its end.
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

EvalContext::StrategyTable &
EvalContext::buildStrategyTable(std::atomic<StrategyTable *> &slot,
                                LayerClass cls, HierStrategy hs) const
{
    std::lock_guard<std::mutex> lock(buildMutex_);
    if (StrategyTable *built = slot.load(std::memory_order_acquire))
        return *built; // Another thread built it while we waited.

    // planLayer reads only the planned layer's class strategy, so a
    // plan mapping @p cls to @p hs yields exactly what any real plan
    // doing the same gets for this class's layers.
    ParallelPlan plan;
    plan.set(cls, hs);
    CommPlanner planner(*desc_, *task_, plan, cluster());

    // Same-shape layers plan identical collectives, so one
    // representative per shape stands for the whole class.
    const std::vector<int> &shapes =
        classes_[static_cast<size_t>(cls)].shapeLayers;
    auto table = std::make_unique<StrategyTable>();
    table->perShape.resize(shapes.size());
    for (size_t k = 0; k < shapes.size(); ++k) {
        std::vector<ResolvedCommOp> &resolved = table->perShape[k];
        for (const CommOp &op : planner.planLayer(shapes[k])) {
            CollectiveEstimate est =
                collectiveEstimate(op.kind, op.scope, op.bytes);
            if (est.seconds <= 0.0)
                continue;
            resolved.push_back(ResolvedCommOp{
                op.phase, op.position, op.kind, commCategoryOf(op.kind),
                op.blocking, est.seconds, op.suffix, est.algo});
        }
    }
    ownedTables_.push_back(std::move(table));
    slot.store(ownedTables_.back().get(), std::memory_order_release);
    return *ownedTables_.back();
}

EvalContext::StrategyTable &
EvalContext::strategyTable(LayerClass cls, HierStrategy hs) const
{
    std::atomic<StrategyTable *> &slot =
        tables_[static_cast<size_t>(cls)][encode(hs)];
    if (StrategyTable *table = slot.load(std::memory_order_acquire))
        return *table;
    return buildStrategyTable(slot, cls, hs);
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
            const ClassLayout &cl = classes_[static_cast<size_t>(cls)];
            buildSegmentSet(*desc_, costs_, cl.templateLayers,
                            cl.templateCounts, table.perShape, false,
                            prefetch, segs.fwd);
            if (task_->needsBackward()) {
                buildSegmentSet(*desc_, costs_, cl.templateLayers,
                                cl.templateCounts, table.perShape, true,
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
    const LayerCosts &lc = costs_[static_cast<size_t>(idx)];
    return strategyTable(lc.cls, hs).perShape[lc.shapeId];
}

PerfReport
EvalContext::verdict(const ParallelPlan &plan) const
{
    PerfReport report;
    report.modelName = desc_->name;
    report.clusterName = cluster().name;
    report.taskName = taskName_;
    report.plan = plan;
    report.globalBatchSize = desc_->globalBatchSize;
    report.contextLength = desc_->contextLength;

    report.memory = model_->memoryModel().evaluate(memoryTerms_, *task_,
                                                   plan, cluster());
    report.valid = report.memory.fits() || options().ignoreMemory;
    return report;
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
    // and land in the breakdowns in ascending enum order afterwards.
    // A category has an entry iff a node touched it, even when the
    // touches summed to zero, hence the flags.
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
            report.serializedBreakdown.emplace_back(cat, serialized[c]);
        if (exposed_touched[c])
            report.exposedBreakdown.emplace_back(cat, exposed[c]);
    }
}

} // namespace

struct EvalContext::Scratch
{
    EventGraph graph;
    FlatSchedule sched;
    SweepScratch sweep;
    std::vector<int32_t> fwdOut;
    std::vector<int32_t> bwdOut;
    std::vector<int32_t> computeIds;
};

PerfReport
EvalContext::evaluate(const ParallelPlan &plan) const
{
    return evaluate(plan, verdict(plan));
}

PerfReport
EvalContext::evaluate(const ParallelPlan &plan, PerfReport report) const
{
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
    const bool backward = task_->needsBackward();

    // Resolve each present class's template segments once (built only
    // for (class, strategy) pairs this context has never seen); every
    // layer then expands straight from cache.
    PlanSegments sets;
    for (size_t c = 0; c < kNumClasses; ++c) {
        if (classes_[c].templateLayers.empty())
            continue;
        const LayerClass cls = static_cast<LayerClass>(c);
        const Segments &segs =
            segments(cls, plan.strategyFor(cls), plan.fsdpPrefetch);
        sets.fwd[c] = &segs.fwd;
        if (backward)
            sets.bwd[c] = &segs.bwd;
    }
    spliceSegments(sets, costs_.data(), desc_->graph.numLayers(),
                   backward, s.graph, s.fwdOut, s.bwdOut, s.computeIds);
}

} // namespace madmax
