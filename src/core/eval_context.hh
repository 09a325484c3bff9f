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
 * EvalContext hoists all of that out of the per-plan hot path, in two
 * parts. The Layout depends on the ModelDesc alone, so a search over
 * several clusters builds it once and every hardware point's context
 * shares it:
 *
 *  - the memory footprint's per-layer inputs are read once into
 *    flat memory_model::Terms, so a plan's verdict prices arrays
 *    instead of calling into every layer;
 *  - layers are grouped by shape (Layer::sameShape: everything but
 *    the name) and by *template* — shape plus the layer's producer
 *    and consumer offsets and its emission ordinal clamped at 2 — with
 *    class-local ids, consumer lists and breakdown categories computed
 *    once, independent of cluster, task and strategy. A transformer
 *    class of any depth has two shapes (attention, FFN) and a handful
 *    of templates;
 *  - the model's field of the memo key (its name, sizes and a digest
 *    of every layer) is built on first need and kept.
 *
 * The rest is per context, for one cluster and task:
 *
 *  - specs are validated once (LayerProcessor / CommPlanner
 *    construction), not once per plan;
 *  - forward/backward compute times are computed once per (class,
 *    shape);
 *  - the collective calls a class needs under a given HierStrategy —
 *    including their modeled durations — are resolved once per
 *    (layer class, strategy) table, for one representative layer per
 *    shape, and shared by every plan that maps the class to that
 *    strategy, with a hashed collective-time table keyed on (kind,
 *    scope, bytes) deduplicating the underlying cost-model estimate
 *    calls;
 *  - per-(class, strategy, prefetch) segment sets
 *    (core/segment_template.hh) hold one symbolic segment per
 *    template and are built on first use, so a plan's event graph is
 *    expanded from cached templates layer by layer. Table and set
 *    build cost, and the memory they hold, scale with distinct
 *    templates, not with depth;
 *  - trace labels are never stored per event: a template event
 *    carries a NameSuffix, and a label (the layer's name from the
 *    ModelDesc plus that suffix) is composed only when a Timeline is
 *    retained.
 *  - the EvalEngine memo key's plan-invariant prefix (the cluster,
 *    options, model and task serialized by memoKeyPrefix) is built on
 *    first need and kept, so a search that carries this context
 *    across its batches serializes the triple once, and every memo
 *    entry keyed through it shares the one prefix.
 *
 * Thread safety: evaluate()/verdict()/plannedOps()/memoPrefix() are
 * safe to call concurrently. Per-(class, strategy) tables and their
 * segment sets are built lazily under a mutex on first use (a plan
 * touches exactly one table per present class) and are immutable once
 * published; the key prefix and the layout's key text are each built
 * once under a once_flag; the rest of the layout is fixed at its
 * construction, so sibling contexts on different threads read it
 * without locks.
 *
 * Lifetime: the context borrows the PerfModel, ModelDesc, and
 * TaskSpec it was built from; all three must outlive it (the shared
 * Layout borrows the ModelDesc too). A search run (RunContexts) builds
 * its first hardware point's context standalone and every later one
 * from a sibling; the EvalEngine builds one standalone context per
 * (model, desc, task) group of a batch that brings none;
 * PerfModel::evaluate builds a throwaway one per call.
 */

#ifndef MADMAX_CORE_EVAL_CONTEXT_HH
#define MADMAX_CORE_EVAL_CONTEXT_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "collective/collective.hh"
#include "collective/topology_model.hh"
#include "core/memo_key.hh"
#include "core/perf_model.hh"
#include "core/segment_template.hh"
#include "parallel/comm_planner.hh"
#include "trace/trace_event.hh"

namespace madmax
{

/** Breakdown category for a collective's trace events. */
EventCategory commCategoryOf(Collective kind);

/** The (cluster, options, model, task) head of an EvalEngine memo
 *  key (EvalEngine::memoKey), shared by every plan of one triple. */
std::shared_ptr<const MemoKeyPrefix>
memoKeyPrefix(const PerfModel &model, const ModelDesc &desc,
              const TaskSpec &task);

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
    NameSuffix suffix = NameSuffix::None; ///< Trace label tail.
    CollAlgo algo = CollAlgo::None; ///< Algorithm the cost model chose.
};

class EvalContext
{
  public:
    /** Plan-invariant per-layer facts: label base, class, ids and
     *  consumers. They depend on the ModelDesc alone (Layout). */
    struct LayerCosts
    {
        EventCategory category = EventCategory::Other;
        const std::string *name = nullptr; ///< &layer.name().
        LayerClass cls = LayerClass::BaseDense; ///< layer.layerClass().
        /** Class-local shape id: equal iff Layer::sameShape. Indexes
         *  the class's per-shape compute times and collective
         *  tables. */
        uint32_t shapeId = 0;
        /** Class-local template id: equal iff same shape, same
         *  producer and consumer offsets, and same emission ordinal
         *  clamped at 2. Indexes the class's segment sets. */
        uint32_t templateId = 0;
        /** Layers consuming this layer's output, ascending (points
         *  into layout-owned storage). */
        const int *consumers = nullptr;
        uint32_t numConsumers = 0;
    };

    /** One class's representatives: the first layer of each shape
     *  and of each template, in id order, and each template's layer
     *  count. */
    struct ClassLayout
    {
        std::vector<int> shapeLayers;
        std::vector<int> templateLayers;
        std::vector<uint32_t> templateCounts;
    };

    /** Forward and backward compute seconds per device of one
     *  (class, shape); backward is 0 for inference. */
    struct ComputeTimes
    {
        double fwd = 0.0;
        double bwd = 0.0;
    };

    /**
     * The part of a context that depends on the ModelDesc alone:
     * per-layer ids and consumer lists, the per-class layout, the
     * footprint terms, and the model's memo-key text. Every
     * standalone context builds one, and its siblings share it.
     * Immutable but for the key text, built once on first need.
     * Borrows the ModelDesc.
     */
    class Layout
    {
      public:
        explicit Layout(const ModelDesc &desc);

        Layout(const Layout &) = delete;
        Layout &operator=(const Layout &) = delete;

        const ModelDesc &desc() const { return *desc_; }
        const memory_model::Terms &memoryTerms() const
        {
            return memoryTerms_;
        }
        const std::vector<LayerCosts> &layers() const { return layers_; }
        const ClassLayout &classLayout(size_t cls) const
        {
            return classes_[cls];
        }
        /** The model's field of the memo key, built on first call. */
        const std::string &keyText() const;

      private:
        /** True when layers @p a and @p b (same class) share a
         *  template: same shape, same producer and consumer offsets,
         *  and the same emission ordinal clamped at 2. */
        bool sameTemplate(int a, int b) const;

        const ModelDesc *desc_;
        memory_model::Terms memoryTerms_;
        std::vector<LayerCosts> layers_;
        std::vector<int> consumerIds_; ///< Backs LayerCosts::consumers.
        /** Indexed by LayerClass; empty for absent classes. */
        std::array<ClassLayout, kNumLayerClasses> classes_;

        mutable std::once_flag keyOnce_;
        mutable std::string keyText_; ///< Set once under keyOnce_.
    };

    /**
     * Precompute the plan-invariant state for @p model x @p desc x
     * @p task. Validates both specs (the only validation any plan
     * evaluated through this context will ever pay).
     */
    EvalContext(const PerfModel &model, const ModelDesc &desc,
                const TaskSpec &task);

    /**
     * The same for @p model's cluster over @p sibling's ModelDesc and
     * TaskSpec, sharing @p sibling's Layout instead of building one.
     * Reports are bit-identical to a standalone context's.
     */
    EvalContext(const PerfModel &model, const EvalContext &sibling);

    EvalContext(const EvalContext &) = delete;
    EvalContext &operator=(const EvalContext &) = delete;

    const PerfModel &model() const { return *model_; }
    const ModelDesc &desc() const { return layout_->desc(); }
    const TaskSpec &task() const { return *task_; }
    const ClusterSpec &cluster() const { return model_->cluster(); }
    const PerfModelOptions &options() const { return model_->options(); }

    /** The ModelDesc-only part, shared with sibling contexts. */
    const std::shared_ptr<const Layout> &layout() const { return layout_; }

    /** task().toString(), computed once. */
    const std::string &taskName() const { return taskName_; }

    /** memoKeyPrefix(model(), desc(), task()), built on first call. */
    const std::shared_ptr<const MemoKeyPrefix> &memoPrefix() const;

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
     * Evaluate one plan in one pass: spliceSegments expands its event
     * graph from the cached per-(layer class, strategy, prefetch)
     * template segments (built only the first time a class runs under
     * a strategy), schedules each event as it expands it, and fills
     * the report's timings and breakdowns. The buffers are per-thread
     * and reused across calls (Scratch). When the model retains
     * timelines (PerfModelOptions::keepTimeline), the same pass
     * writes each scheduled event into the report's Timeline, and
     * evaluate() appends the iteration-end barrier. OOM plans
     * short-circuit to the memory verdict unless the model ignores
     * memory. Same as evaluate(plan, verdict(plan)).
     */
    PerfReport evaluate(const ParallelPlan &plan) const;

    /**
     * evaluate() for a caller that already holds @p plan's verdict
     * (the EvalEngine's pruning pre-pass), so the footprint is priced
     * once per plan. @p verdict must be verdict(plan).
     */
    PerfReport evaluate(const ParallelPlan &plan, PerfReport verdict) const;

    /**
     * Memory-only evaluation, identical to PerfModel::verdict, priced
     * from the layout's footprint terms.
     */
    PerfReport verdict(const ParallelPlan &plan) const;

    const LayerCosts &layerCosts(int idx) const
    {
        return layout_->layers()[static_cast<size_t>(idx)];
    }

    /** Layer @p idx's compute times (its shape's). */
    const ComputeTimes &computeTimes(int idx) const;

    /**
     * The resolved collectives layer @p idx needs when its class runs
     * under @p hs. Built lazily per (class, strategy) pair (one
     * CommPlanner pass over one layer per shape, shared by every
     * layer of that shape), then served lock-free. The returned
     * vector is stable for the context's lifetime.
     */
    const std::vector<ResolvedCommOp> &plannedOps(int idx,
                                                  HierStrategy hs) const;

    /** Distinct (kind, scope, bytes) collective timings memoized so
     *  far (observability / tests). */
    size_t collectiveTableSize() const;

    /**
     * The buffers one evaluation schedules into. Each only grows: a
     * splice writes its entries through raw pointers, counts them in
     * locals, and reads only what it wrote, so entries a larger
     * earlier splice left behind are never read. No node is stored; a
     * retained Timeline is written straight into the report.
     * evaluate() keeps one per thread and reuses it across calls and
     * contexts.
     */
    struct Scratch
    {
        /** A scheduled node's finish, and its id (written for a
         *  retained Timeline's dependency lists only). */
        struct Placed
        {
            double finish;
            int32_t id;
        };
        /** A merged compute-busy interval [lo, hi). */
        struct Busy
        {
            double lo;
            double hi;
        };
        /** A comm node's nonzero scheduled interval [lo, hi). */
        struct CommQuery
        {
            double lo;
            double hi;
            EventCategory category;
            uint32_t channel; ///< 0 blocking, 1 background.
        };

        std::vector<Placed> nodes; ///< Indexed by node id.
        /** Per layer: its forward visible output at [layer], its
         *  backward one at [numLayers + layer]. */
        std::vector<Placed> outputs;
        std::vector<Placed> computes; ///< Per emission ordinal.
        std::vector<Busy> cover; ///< Ascending, disjoint.
        std::vector<CommQuery> queries; ///< In node order.
    };

  private:
    /** The template segments evaluate() expands from, for one
     *  (class, strategy, fsdpPrefetch) binding: one per class
     *  template; bwd stays empty for forward-only tasks. Built on
     *  first use, published once. */
    struct Segments
    {
        std::atomic<bool> ready{false};
        SegmentSet fwd;
        SegmentSet bwd;
    };

    /** Resolved ops for one class's shapes (indexed by shapeId)
     *  under one (intra, inter) strategy pair, plus its segment sets
     *  per prefetch value (one-off evaluations build only the variant
     *  they splice). Allocated and published on first use. */
    struct StrategyTable
    {
        std::vector<std::vector<ResolvedCommOp>> perShape;
        std::array<Segments, 2> segs; ///< Indexed by fsdpPrefetch.
    };

    /** A memoized collective estimate's key: the payload's bit
     *  pattern and (kind, scope) packed. */
    using CollectiveKey = std::pair<uint64_t, uint32_t>;
    struct CollectiveKeyHash
    {
        size_t operator()(const CollectiveKey &key) const;
    };

    static constexpr size_t kNumClasses = kNumLayerClasses;
    static constexpr size_t kNumStrategies = 25;

    static size_t encode(HierStrategy hs);

    /** Both public constructors: the per-context state over
     *  @p layout. */
    EvalContext(const PerfModel &model, const TaskSpec &task,
                std::shared_ptr<const Layout> layout);

    /** Build and publish the table for @p cls under @p hs into
     *  @p slot, unless another thread already did. */
    StrategyTable &buildStrategyTable(std::atomic<StrategyTable *> &slot,
                                      LayerClass cls,
                                      HierStrategy hs) const;

    /** The (lazily built) table for @p cls under @p hs. */
    StrategyTable &strategyTable(LayerClass cls, HierStrategy hs) const;

    /** The (lazily built) segment sets for @p cls under @p hs and
     *  @p prefetch. */
    const Segments &segments(LayerClass cls, HierStrategy hs,
                             bool prefetch) const;

    /** Memoized TopologyCollectiveModel::estimate (only called while
     *  holding buildMutex_). */
    CollectiveEstimate collectiveEstimate(Collective kind, CommScope scope,
                                          double bytes) const;

    std::shared_ptr<const Layout> layout_;
    const PerfModel *model_;
    const TaskSpec *task_;
    std::string taskName_;
    TopologyCollectiveModel collectives_;
    /** Indexed by [LayerClass][shapeId]. */
    std::array<std::vector<ComputeTimes>, kNumClasses> shapeTimes_;

    /** Indexed by [LayerClass][encode(hs)]; null until first use,
     *  then set once (release) under buildMutex_. A context touches a
     *  few of the 125 slots, so only those are allocated. */
    mutable std::array<
        std::array<std::atomic<StrategyTable *>, kNumStrategies>,
        kNumClasses>
        tables_{};
    /** Owns the published tables (guarded by buildMutex_). */
    mutable std::vector<std::unique_ptr<StrategyTable>> ownedTables_;
    mutable std::mutex buildMutex_;

    mutable std::once_flag memoPrefixOnce_;
    /** Set once under memoPrefixOnce_. */
    mutable std::shared_ptr<const MemoKeyPrefix> memoPrefix_;

    /** Guarded by buildMutex_. */
    mutable std::unordered_map<CollectiveKey, CollectiveEstimate,
                               CollectiveKeyHash>
        collectiveTable_;
};

} // namespace madmax

#endif // MADMAX_CORE_EVAL_CONTEXT_HH
