#include "core/eval_context.hh"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/layer_processor.hh"
#include "core/stream_builder.hh"
#include "hw/topology.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

/** Append @p v as 16 lowercase hex digits, most significant first. */
void
appendHex(std::string &out, uint64_t v)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    char buf[16];
    for (int i = 15; i >= 0; --i, v >>= 4)
        buf[i] = kDigits[v & 0xf];
    out.append(buf, sizeof(buf));
}

uint64_t
bitsOf(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
appendDouble(std::string &out, double v)
{
    // The fixed-width bit pattern: equal text means bit-identical
    // values, so two clusters that differ in the last ulp of a
    // bandwidth never share cache entries. Fixed width needs no
    // separator, and hex never contains the ',' or '|' the key's
    // other fields and its prefix/suffix cut use.
    appendHex(out, bitsOf(v));
}

/** The splitmix64 finalizer: every input bit flips about half of the
 *  output bits. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
appendCluster(std::string &out, const ClusterSpec &c)
{
    out += c.name;
    out += ',';
    out += std::to_string(c.devicesPerNode) + ',' +
        std::to_string(c.numNodes) + ',';
    out += std::to_string(static_cast<int>(c.intraFabric)) + ',' +
        std::to_string(static_cast<int>(c.interFabric)) + ',';
    appendDouble(out, c.util.compute);
    appendDouble(out, c.util.hbm);
    appendDouble(out, c.util.intraLink);
    appendDouble(out, c.util.interLink);
    const DeviceSpec &d = c.device;
    out += d.name;
    out += ',';
    appendDouble(out, d.peakFlopsTensor16);
    appendDouble(out, d.peakFlopsTf32);
    appendDouble(out, d.peakFlopsFp32);
    appendDouble(out, d.hbmCapacity);
    appendDouble(out, d.hbmBandwidth);
    appendDouble(out, d.intraNodeBandwidth);
    appendDouble(out, d.interNodeBandwidth);
    // Topology-carrying clusters price on their own tier stack; the
    // spec fingerprint keeps them from sharing entries with the flat
    // shape (or with a differently-tiered topology).
    if (c.topology) {
        out += 'T';
        appendHex(out, c.topology->fingerprint());
    } else {
        out += '-';
    }
}

void
appendOptions(std::string &out, const PerfModelOptions &o)
{
    out += o.ignoreMemory ? '1' : '0';
    out += o.backgroundCommChannel ? '1' : '0';
    out += o.keepTimeline ? '1' : '0';
    out += std::to_string(static_cast<int>(o.allReduceAlgorithm));
    out += ',';
    if (o.smModel) {
        appendDouble(out, o.smModel->maxUtil());
        appendDouble(out, o.smModel->halfSaturationFlops());
    } else {
        out += '-';
    }
}

void
appendModel(std::string &out, const ModelDesc &m)
{
    out += m.name;
    out += ',';
    out += std::to_string(m.globalBatchSize) + ',' +
        std::to_string(m.contextLength) + ',';
    out += std::to_string(static_cast<int>(m.computeDtype)) + ',' +
        std::to_string(static_cast<int>(m.paramDtype)) + ',';
    out += m.isRecommendation ? '1' : '0';
    out += std::to_string(m.graph.numLayers()) + ',';
    // Same-name models can differ per layer (custom JSON configs that
    // redistribute width); fold every layer's class and cost into a
    // 64-bit digest so such models never share a cache entry, one
    // full-avalanche step per 64-bit field.
    uint64_t h = 0;
    auto fold = [&h](uint64_t v) {
        h = mix64(h + 0x9e3779b97f4a7c15ull + v);
    };
    // Every per-layer, per-sample quantity the performance and memory
    // models read: compute, lookup traffic, and output/TP communication
    // volume (the output is also the retained activation). Layers that
    // trade width for depth can match on params + FLOPs alone, so those
    // two are not enough.
    const double dtype_bytes = m.activationBytes();
    for (int i = 0; i < m.graph.numLayers(); ++i) {
        const Layer &layer = m.graph.layer(i);
        fold(static_cast<uint64_t>(layer.kind()));
        fold(static_cast<uint64_t>(layer.layerClass()));
        fold(bitsOf(layer.paramCount()));
        fold(bitsOf(layer.forwardFlopsPerSample()));
        fold(bitsOf(layer.lookupBytesPerSample()));
        fold(bitsOf(layer.outputBytesPerSample(dtype_bytes)));
        fold(bitsOf(layer.tpCommBytesPerSample(dtype_bytes)));
    }
    appendHex(out, h);
}

/** The memo-key prefix over @p modelText (appendModel's output) and
 *  @p taskText (TaskSpec::toString()): the one assembly behind
 *  memoKeyPrefix and EvalContext::memoPrefix. */
std::shared_ptr<const MemoKeyPrefix>
assemblePrefix(const PerfModel &model, const std::string &modelText,
               const std::string &taskText)
{
    std::string key;
    key.reserve(192 + modelText.size() + taskText.size());
    appendCluster(key, model.cluster());
    key += '|';
    appendOptions(key, model.options());
    key += '|';
    key += modelText;
    key += '|';
    key += taskText;
    key += '|';
    return std::make_shared<const MemoKeyPrefix>(std::move(key));
}

} // namespace

std::shared_ptr<const MemoKeyPrefix>
memoKeyPrefix(const PerfModel &model, const ModelDesc &desc,
              const TaskSpec &task)
{
    std::string model_text;
    appendModel(model_text, desc);
    return assemblePrefix(model, model_text, task.toString());
}

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

EvalContext::Layout::Layout(const ModelDesc &desc)
    : desc_(&desc), memoryTerms_(memory_model::terms(desc))
{
    // Shapes: a layer's costs are a pure function of its shape, so a
    // context prices only each shape's first layer.
    const ModelGraph &graph = desc.graph;
    const int num_layers = graph.numLayers();
    layers_.resize(static_cast<size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
        const Layer &layer = graph.layer(i);
        LayerCosts &lc = layers_[static_cast<size_t>(i)];
        lc.cls = layer.layerClass();
        std::vector<int> &shapes =
            classes_[static_cast<size_t>(lc.cls)].shapeLayers;
        uint32_t shape = 0;
        while (shape < shapes.size() &&
               !layer.sameShape(graph.layer(shapes[shape])))
            ++shape;
        if (shape == shapes.size()) {
            shapes.push_back(i);
            lc.category = LayerProcessor::categoryOf(layer);
        } else {
            lc.category = layers_[static_cast<size_t>(shapes[shape])].category;
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
        layers_[i].consumers = consumerIds_.data() + begin[i];
        layers_[i].numConsumers = begin[i + 1] - begin[i];
    }

    // Templates: everything a layer's segments depend on besides its
    // shape, in relative form (see core/segment_template.hh).
    for (int i = 0; i < num_layers; ++i) {
        LayerCosts &lc = layers_[static_cast<size_t>(i)];
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
EvalContext::Layout::sameTemplate(int a, int b) const
{
    const LayerCosts &la = layers_[static_cast<size_t>(a)];
    const LayerCosts &lb = layers_[static_cast<size_t>(b)];
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

const std::string &
EvalContext::Layout::keyText() const
{
    std::call_once(keyOnce_, [this] { appendModel(keyText_, *desc_); });
    return keyText_;
}

EvalContext::EvalContext(const PerfModel &model, const ModelDesc &desc,
                         const TaskSpec &task)
    : EvalContext(model, task, std::make_shared<const Layout>(desc))
{}

EvalContext::EvalContext(const PerfModel &model, const EvalContext &sibling)
    : EvalContext(model, sibling.task(), sibling.layout())
{}

EvalContext::EvalContext(const PerfModel &model, const TaskSpec &task,
                         std::shared_ptr<const Layout> layout)
    : layout_(std::move(layout)), model_(&model), task_(&task),
      taskName_(task.toString()),
      collectives_(model.cluster(), CollectiveLatency{},
                   model.options().allReduceAlgorithm)
{
    // LayerProcessor validates the cluster and the model once; every
    // plan evaluated through this context reuses that validation.
    LayerProcessor processor(cluster(), desc(), options().smModel);

    // A layer's compute times are a pure function of its shape, so
    // only each shape's first layer is priced.
    for (size_t c = 0; c < kNumClasses; ++c) {
        const std::vector<int> &shapes = layout_->classLayout(c).shapeLayers;
        shapeTimes_[c].reserve(shapes.size());
        for (int i : shapes) {
            const Layer &rep = desc().graph.layer(i);
            shapeTimes_[c].push_back(
                ComputeTimes{processor.forwardTime(rep, task),
                             processor.backwardTime(rep, task)});
        }
    }
}

const EvalContext::ComputeTimes &
EvalContext::computeTimes(int idx) const
{
    const LayerCosts &lc = layerCosts(idx);
    return shapeTimes_[static_cast<size_t>(lc.cls)][lc.shapeId];
}

const std::shared_ptr<const MemoKeyPrefix> &
EvalContext::memoPrefix() const
{
    std::call_once(memoPrefixOnce_, [this] {
        memoPrefix_ =
            assemblePrefix(*model_, layout_->keyText(), taskName_);
    });
    return memoPrefix_;
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

size_t
EvalContext::CollectiveKeyHash::operator()(const CollectiveKey &key) const
{
    return mix64(key.first ^ uint64_t{key.second} * 0x9e3779b97f4a7c15ull);
}

CollectiveEstimate
EvalContext::collectiveEstimate(Collective kind, CommScope scope,
                                double bytes) const
{
    const CollectiveKey key{bitsOf(bytes),
                            static_cast<uint32_t>(kind) << 8 |
                                static_cast<uint32_t>(scope)};
    auto it = collectiveTable_.find(key);
    if (it != collectiveTable_.end())
        return it->second;
    const CollectiveEstimate est = collectives_.estimate(kind, scope, bytes);
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
    CommPlanner planner(desc(), *task_, plan, cluster());

    // Same-shape layers plan identical collectives, so one
    // representative per shape stands for the whole class.
    const std::vector<int> &shapes =
        layout_->classLayout(static_cast<size_t>(cls)).shapeLayers;
    auto table = std::make_unique<StrategyTable>();
    table->perShape.resize(shapes.size());
    for (size_t k = 0; k < shapes.size(); ++k) {
        const std::vector<CommOp> ops = planner.planLayer(shapes[k]);
        std::vector<ResolvedCommOp> &resolved = table->perShape[k];
        resolved.reserve(ops.size());
        for (const CommOp &op : ops) {
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
            const size_t c = static_cast<size_t>(cls);
            const ClassLayout &cl = layout_->classLayout(c);
            buildSegmentSet(desc(), layout_->layers(), cl, shapeTimes_[c],
                            table.perShape, false, prefetch, segs.fwd);
            if (task_->needsBackward()) {
                buildSegmentSet(desc(), layout_->layers(), cl,
                                shapeTimes_[c], table.perShape, true,
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
    const LayerCosts &lc = layerCosts(idx);
    return strategyTable(lc.cls, hs).perShape[lc.shapeId];
}

PerfReport
EvalContext::verdict(const ParallelPlan &plan) const
{
    PerfReport report;
    report.modelName = desc().name;
    report.clusterName = cluster().name;
    report.taskName = taskName_;
    report.plan = plan;
    report.globalBatchSize = desc().globalBatchSize;
    report.contextLength = desc().contextLength;

    report.memory = memory_model::evaluate(layout_->memoryTerms(), *task_,
                                           plan, cluster());
    report.valid = report.memory.fits() || options().ignoreMemory;
    return report;
}

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

    // Resolve each present class's template segments once (built only
    // for (class, strategy) pairs this context has never seen); every
    // layer then expands straight from cache.
    const bool backward = task_->needsBackward();
    PlanSegments sets;
    for (size_t c = 0; c < kNumClasses; ++c) {
        if (layout_->classLayout(c).templateLayers.empty())
            continue;
        const LayerClass cls = static_cast<LayerClass>(c);
        const Segments &segs =
            segments(cls, plan.strategyFor(cls), plan.fsdpPrefetch);
        sets.fwd[c] = &segs.fwd;
        if (backward)
            sets.bwd[c] = &segs.bwd;
    }

    // Constructed on a thread's first evaluation only, so threads that
    // never evaluate carry no buffers. Every call overwrites what it
    // reads, so state left by another context (or by a throw midway)
    // is harmless.
    static thread_local Scratch scratch;
    Timeline *tl = options().keepTimeline ? &report.timeline : nullptr;
    spliceSegments(sets, layout_->layers().data(), desc().graph.numLayers(),
                   backward, options().backgroundCommChannel, scratch,
                   report, tl);

    if (tl != nullptr) {
        // The iteration-end barrier: a zero-duration compute event
        // after every other, so non-blocking gradient collectives
        // still bound the makespan.
        const size_t n = tl->events.size();
        TraceEvent end;
        end.id = static_cast<int>(n);
        end.name = "iter_end";
        end.deps.resize(n);
        std::iota(end.deps.begin(), end.deps.end(), 0);
        end.backward = backward;
        tl->events.push_back(ScheduledEvent{
            std::move(end), report.iterationTime, report.iterationTime});
        tl->makespan = report.iterationTime;
    }
#ifdef MADMAX_CHECK_REPORTS
    const std::string broken =
        reportInvariantViolation(report, options().ignoreMemory);
    if (!broken.empty())
        panic("EvalContext::evaluate: " + broken + " for " + plan.toString());
#endif
    return report;
}

} // namespace madmax
