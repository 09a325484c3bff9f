/**
 * @file
 * Shared evaluation context: everything about a (cluster, model, task)
 * triple that is invariant across parallelization plans, computed once
 * and reused for every plan of a sweep.
 *
 * A design-space sweep (`madmax explore`, `/v1/explore`, the DSE and
 * fleet studies) evaluates hundreds to thousands of plans against one
 * triple. Before this context existed, every PerfModel::evaluate call
 * re-validated the cluster and model, rebuilt LayerProcessor /
 * the collective model / CommPlanner, and re-derived per-layer compute
 * times and collective timings that do not depend on the plan at all.
 * EvalContext hoists all of that out of the per-plan hot path:
 *
 *  - specs are validated once (LayerProcessor / CommPlanner
 *    construction), not once per plan;
 *  - per-layer forward/backward compute times, breakdown categories,
 *    and the backward trace labels ("layer'") are precomputed;
 *  - the collective calls each layer needs under a given
 *    HierStrategy — including their modeled durations — are resolved
 *    once per (layer class, strategy) table, for that class's layers
 *    only, and shared by every plan that maps the class to that
 *    strategy, with a memoized collective-time table keyed on (kind,
 *    scope, bytes) deduplicating the underlying cost-model estimate
 *    calls;
 *  - per-(class, strategy, prefetch) segment arenas
 *    (core/segment_template.hh) hold that class's layers only and
 *    are built on first use, so a plan's event graph is spliced from
 *    cached segments instead of re-emitted layer by layer, and a
 *    one-off evaluation builds each layer's segments once;
 *  - trace-event names are owned here (stable storage), so the flat
 *    event graph only carries pointers and plans that do not retain a
 *    Timeline never copy a string.
 *
 * Thread safety: evaluate()/verdict()/plannedOps() are safe to call
 * concurrently. Per-(class, strategy) tables are built lazily under a
 * mutex on first use (a plan touches exactly one table per present
 * class) and are immutable once published.
 *
 * Lifetime: the context borrows the PerfModel, ModelDesc, and
 * TaskSpec it was built from; all three must outlive it. The
 * EvalEngine builds one context per (model, desc, task) group of a
 * batch; PerfModel::evaluate builds a throwaway one per call.
 */

#ifndef MADMAX_CORE_EVAL_CONTEXT_HH
#define MADMAX_CORE_EVAL_CONTEXT_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "collective/collective.hh"
#include "collective/topology_model.hh"
#include "core/perf_model.hh"
#include "core/segment_template.hh"
#include "parallel/comm_planner.hh"
#include "trace/event_graph.hh"
#include "trace/trace_event.hh"

namespace madmax
{

/** Breakdown category for a collective's trace events. */
EventCategory commCategoryOf(Collective kind);

/**
 * One collective call of one layer with its cost already resolved
 * against the cluster — a CommOp whose TopologyCollectiveModel
 * estimate has been paid. Ops that model to a non-positive duration
 * are dropped at resolution time (the stream builder never emitted
 * events for them).
 */
struct ResolvedCommOp
{
    Phase phase = Phase::Forward;
    CommPosition position = CommPosition::Post;
    Collective kind = Collective::AllReduce;
    EventCategory category = EventCategory::Other;
    bool blocking = true;
    double duration = 0.0; ///< Seconds; > 0 by construction.
    std::string tag;       ///< Trace label (stable storage for graphs).
    CollAlgo algo = CollAlgo::None; ///< Algorithm the cost model chose.
};

class EvalContext
{
  public:
    /**
     * Precompute the plan-invariant state for @p model x @p desc x
     * @p task. Validates both specs (the only validation any plan
     * evaluated through this context will ever pay).
     */
    EvalContext(const PerfModel &model, const ModelDesc &desc,
                const TaskSpec &task);

    EvalContext(const EvalContext &) = delete;
    EvalContext &operator=(const EvalContext &) = delete;

    const PerfModel &model() const { return *model_; }
    const ModelDesc &desc() const { return *desc_; }
    const TaskSpec &task() const { return *task_; }
    const ClusterSpec &cluster() const { return model_->cluster(); }
    const PerfModelOptions &options() const { return model_->options(); }

    /** task().toString(), computed once. */
    const std::string &taskName() const { return taskName_; }

    /**
     * The collective cost model this context prices with: the
     * cluster's topology stack, or its flat-equivalent stack when
     * none is attached. Immutable; safe to share.
     */
    const TopologyCollectiveModel &collectives() const
    {
        return collectives_;
    }

    /**
     * Evaluate one plan: splice its event graph from the cached
     * per-(layer class, strategy, prefetch) segment arenas (template
     * construction is paid only the first time a class runs under a
     * strategy),
     * run the linear overlap sweep, and fill the report. Graph,
     * schedule, and sweep buffers are per-thread and reused across
     * calls. The scheduled Timeline is materialized only when the
     * model retains timelines (PerfModelOptions::keepTimeline). OOM
     * plans short-circuit to the memory verdict unless the model
     * ignores memory.
     */
    PerfReport evaluate(const ParallelPlan &plan) const;

    /** Memory-only evaluation, identical to PerfModel::verdict. */
    PerfReport verdict(const ParallelPlan &plan) const;

    /** Plan-invariant per-layer costs and trace labels. */
    struct LayerCosts
    {
        double fwdTime = 0.0; ///< Forward compute seconds per device.
        double bwdTime = 0.0; ///< Backward compute seconds (0 inference).
        EventCategory category = EventCategory::Other;
        const std::string *fwdName = nullptr; ///< &layer.name().
        std::string bwdName; ///< layer.name() + "'" (backward label).
        LayerClass cls = LayerClass::BaseDense; ///< layer.layerClass().
        /** Position among the layers of class `cls`, ascending — the
         *  layer's entry in that class's tables and forward arenas. */
        uint32_t classIndex = 0;
        /** Layers consuming this layer's output, ascending (points
         *  into context-owned storage). */
        const int *consumers = nullptr;
        uint32_t numConsumers = 0;
    };

    const LayerCosts &layerCosts(int idx) const
    {
        return costs_[static_cast<size_t>(idx)];
    }

    /**
     * The resolved collectives layer @p idx needs when its class runs
     * under @p hs. Built lazily per (class, strategy) pair (one
     * CommPlanner pass over the class's layers, shared by all of
     * them), then served lock-free. The returned vector and its tag
     * strings are stable for the context's lifetime.
     */
    const std::vector<ResolvedCommOp> &plannedOps(int idx,
                                                  HierStrategy hs) const;

    /** Distinct (kind, scope, bytes) collective timings memoized so
     *  far (observability / tests). */
    size_t collectiveTableSize() const;

  private:
    /** The packed segment arenas evaluate() splices from, for one
     *  (class, strategy, fsdpPrefetch) binding: the class's layers in
     *  emission order; bwd stays empty for forward-only tasks. Built
     *  on first use, published once. */
    struct Segments
    {
        std::atomic<bool> ready{false};
        SegmentSet fwd;
        SegmentSet bwd;
    };

    /** Resolved ops for one class's layers (indexed by classIndex)
     *  under one (intra, inter) strategy pair, published once, plus
     *  its segment arenas per prefetch value (one-off evaluations
     *  build only the variant they splice). */
    struct StrategyTable
    {
        std::atomic<bool> ready{false};
        std::vector<std::vector<ResolvedCommOp>> perLayer;
        std::array<Segments, 2> segs; ///< Indexed by fsdpPrefetch.
    };

    static constexpr size_t kNumClasses = 5;
    static constexpr size_t kNumStrategies = 25;

    static size_t encode(HierStrategy hs);

    void buildStrategyTable(StrategyTable &table, LayerClass cls,
                            HierStrategy hs) const;

    /** The (lazily built) table for @p cls under @p hs. */
    StrategyTable &strategyTable(LayerClass cls, HierStrategy hs) const;

    /** The (lazily built) segment arenas for @p cls under @p hs and
     *  @p prefetch. */
    const Segments &segments(LayerClass cls, HierStrategy hs,
                             bool prefetch) const;

    /** Per-thread graph / schedule buffers (defined in the .cc). */
    struct Scratch;

    /** Build @p plan's graph into @p s from cached templates. */
    void spliceGraph(Scratch &s, const ParallelPlan &plan) const;

    /** Memoized TopologyCollectiveModel::estimate (only called while
     *  holding buildMutex_). */
    CollectiveEstimate collectiveEstimate(Collective kind, CommScope scope,
                                          double bytes) const;

    const PerfModel *model_;
    const ModelDesc *desc_;
    const TaskSpec *task_;
    std::string taskName_;
    TopologyCollectiveModel collectives_;
    std::vector<LayerCosts> costs_;
    std::vector<int> consumerIds_; ///< Backs LayerCosts::consumers.
    /** Each class's layers, ascending (indexed by LayerClass). */
    std::array<std::vector<int>, kNumClasses> classLayers_;

    /** Indexed by [LayerClass][encode(hs)]. */
    mutable std::array<std::array<StrategyTable, kNumStrategies>,
                       kNumClasses>
        tables_;
    mutable std::mutex buildMutex_;

    /** Keyed (kind, scope, bytes-bits); the context has one model. */
    mutable std::map<std::tuple<int, int, uint64_t>, CollectiveEstimate>
        collectiveTable_;
};

} // namespace madmax

#endif // MADMAX_CORE_EVAL_CONTEXT_HH
