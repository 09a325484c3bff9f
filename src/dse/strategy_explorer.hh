/**
 * @file
 * Design-space explorer (§V "Design Space Exploration"): enumerates
 * valid hierarchical parallelization strategies per layer class,
 * evaluates each full plan through the performance model, and ranks
 * by throughput — the engine behind Figs. 10-18.
 *
 * explore() is runSearch("exhaustive") (dse/search_strategy.hh) plus
 * a ranking; best() is the head of that ranking. All evaluations flow
 * through an EvalEngine (src/engine/), which parallelizes, memoizes,
 * and prunes them; result ordering is deterministic regardless of
 * thread count.
 */

#ifndef MADMAX_DSE_STRATEGY_EXPLORER_HH
#define MADMAX_DSE_STRATEGY_EXPLORER_HH

#include <memory>
#include <vector>

#include "dse/search_strategy.hh"
#include "engine/eval_engine.hh"

namespace madmax
{

/** One explored point. stats is only populated on best()'s winner
 *  (the whole-search cost); explore() reports stats batch-wide. */
struct ExplorationResult
{
    ParallelPlan plan;
    PerfReport report;
    EvalStats stats;
};

/** A ranked exploration of the full plan space. */
struct Exploration
{
    /** Sorted by descending throughput; OOM plans are kept, reported
     *  invalid and ranked last, so benches can render the paper's gray
     *  bars. */
    std::vector<ExplorationResult> results;

    /** Search cost of this call (evaluations, cache hits, pruned). */
    EvalStats stats;
};

/**
 * The explore response of `madmax explore --format json` and
 * /v1/explore: the first @p top results' reports under "results" and
 * the search cost under "search". Zero shown results serialize as
 * null.
 */
JsonValue toJson(const Exploration &exploration, size_t top);

/** Exploration knobs. */
struct ExplorerOptions
{
    /** Also explore FSDP-prefetch variants of FSDP-bearing plans. */
    bool explorePrefetch = false;
};

/**
 * Exhaustive explorer over the per-layer-class strategy space. The
 * candidate sets follow the paper: dense classes draw from global and
 * hierarchical compositions of {DDP, FSDP, TP}; sparse embedding
 * tables from sharding variants; MoE experts from expert-parallel and
 * dense-style strategies.
 */
class StrategyExplorer
{
  public:
    /**
     * @param model  The bound performance model.
     * @param engine Shared evaluation engine; pass one to pool
     *        threads and share the memo cache with other call sites
     *        (DSE sweeps, fleet, CLI). When null, the explorer owns
     *        a private serial engine (memoizing, one thread).
     */
    explicit StrategyExplorer(const PerfModel &model,
                              EvalEngine *engine = nullptr);

    /** Candidate strategies for one layer class. */
    static std::vector<HierStrategy> candidates(LayerClass cls);

    /**
     * Evaluate the cartesian product of candidates over the classes
     * present in @p desc. Results are sorted by descending
     * throughput, invalid plans last; ordering is identical for any
     * engine thread count.
     */
    Exploration explore(const ModelDesc &desc, const TaskSpec &task,
                        const ExplorerOptions &options = {}) const;

    /**
     * The throughput-optimal valid plan: the head of explore()'s
     * ranking (the first plan in enumeration order on a throughput
     * tie). The result's stats field carries the whole search's cost.
     * Guided searches over a space run through runSearch() or the
     * ParetoEngine.
     *
     * @throws ConfigError if no plan fits in memory.
     */
    ExplorationResult best(const ModelDesc &desc, const TaskSpec &task,
                           const ExplorerOptions &options = {}) const;

    /** Baseline FSDP report for speedup normalization. */
    PerfReport baseline(const ModelDesc &desc, const TaskSpec &task) const;

  private:
    /** The shared engine, or the private serial fallback. */
    EvalEngine &engine() const;

    const PerfModel &model_;
    EvalEngine *shared_;                ///< Borrowed; may be null.
    std::unique_ptr<EvalEngine> owned_; ///< Serial fallback.
};

} // namespace madmax

#endif // MADMAX_DSE_STRATEGY_EXPLORER_HH
