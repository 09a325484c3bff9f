/**
 * @file
 * Search strategies over the joint (hardware point x parallelization
 * plan) design space (§V "Design Space Exploration"), behind one
 * name-keyed entry point, runSearch().
 *
 * A SearchSpace describes the space: one PerfModel per hardware point
 * and the per-layer-class strategy candidates. runSearch() visits
 * points of that space through an EvalEngine (which parallelizes,
 * memoizes, and OOM-prunes them) and returns every visited candidate
 * plus the EvalStats of the visit, so search cost-to-quality is
 * directly measurable. Consumers pick what they need from the
 * outcome: StrategyExplorer::best() takes the throughput argmax, the
 * ParetoEngine builds a multi-objective frontier from all of it.
 *
 * Four strategies ship. Their names are the only vocabulary: the CLI,
 * the JSON bodies and ParetoOptions all pass one of them to
 * runSearch(), which dispatches from one static table:
 *
 *   exhaustive         full cartesian product (StrategyExplorer::explore),
 *   coordinate-descent greedy per-coordinate sweeps until fixpoint,
 *   annealing          simulated annealing with Metropolis acceptance,
 *   genetic            population search seeded from per-class sweep
 *                      winners, crossover on layer-class assignments.
 *
 * Guided strategies are deterministic (seeded mt19937) and respect an
 * evaluation budget, so "95% of the optimum at 25% of the cost" is a
 * testable contract (tests/dse/test_search_strategy.cc).
 */

#ifndef MADMAX_DSE_SEARCH_STRATEGY_HH
#define MADMAX_DSE_SEARCH_STRATEGY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/eval_engine.hh"

namespace madmax
{

class EvalContext;

/**
 * Knobs for the guided searches. All strategies are deterministic for
 * a fixed option set: randomized ones draw from a private mt19937
 * seeded here, never from global state.
 */
struct SearchOptions
{
    /** RNG seed for annealing / genetic ("madmax" in ASCII). */
    uint64_t seed = 0x6d61646d6178ull;

    /**
     * Full-evaluation budget for the guided strategies (annealing,
     * genetic): they stop submitting new points once the engine has
     * executed this many fresh PerfModel evaluations on their behalf
     * — a hard ceiling, pre-trimmed batches included. Cache hits and
     * OOM-pruned points are free. 0 = auto (about a sixth of the
     * space, at least 12); negative = no budget left, evaluate
     * nothing (the ParetoEngine passes this when its baseline sweep
     * already consumed the caller's budget). Exhaustive ignores the
     * budget (it *is* the reference cost); coordinate descent honors
     * an explicit budget but normally terminates on its own.
     */
    long maxEvaluations = 0;
};

/** One visited point of the space. */
struct SearchCandidate
{
    size_t hwIndex = 0; ///< Index into SearchSpace::models.
    ParallelPlan plan;
    PerfReport report;
};

/**
 * The joint search space. models has one entry per hardware point
 * (StrategyExplorer passes exactly one); candidates[i] holds the
 * admissible HierStrategy set for classes[i]. All pointers are
 * borrowed and must outlive the search.
 */
struct SearchSpace
{
    std::vector<const PerfModel *> models;
    const ModelDesc *desc = nullptr;
    const TaskSpec *task = nullptr;
    std::vector<LayerClass> classes;
    std::vector<std::vector<HierStrategy>> candidates;

    /** Also visit FSDP-prefetch-off variants (exhaustive only). */
    bool explorePrefetch = false;

    /**
     * Points the caller already evaluated (e.g. the ParetoEngine's
     * per-hardware FSDP baselines). Guided strategies use them as
     * free warm-start context — picking their starting hardware point
     * from the best valid entry instead of re-probing every point —
     * but do not copy them into their outcome.
     */
    std::vector<SearchCandidate> warmStart;

    /** Plans per hardware point (cartesian product, prefetch-on). */
    size_t planCount() const;

    /** Total points: hardware points x plans. */
    size_t size() const { return models.size() * planCount(); }

    /** Validate pointers and shape. @throws ConfigError */
    void validate() const;
};

/** Everything a strategy visited, in visit order, plus its cost. */
struct SearchOutcome
{
    std::vector<SearchCandidate> evaluated;
    EvalStats stats;
};

/**
 * One EvalContext per hardware point of a search run, built on the
 * point's first request and shared by every later batch. Guided
 * searches submit many small batches (annealing: one point per
 * proposal); without this, each batch would rebuild its context's
 * strategy tables and segment arenas. The first context built is
 * standalone and every later one its sibling, so the run builds the
 * model's EvalContext::Layout once. A caller that evaluates points of
 * its own before searching (the ParetoEngine's baseline sweep) passes
 * one instance to both, so each point's context is built once.
 */
class RunContexts
{
  public:
    explicit RunContexts(const SearchSpace &space);
    ~RunContexts();

    /** The context for hardware point @p hw, or null when building it
     *  throws: the engine then builds its own and reports the error in
     *  each request's failure report. */
    const EvalContext *at(size_t hw);

  private:
    const SearchSpace &space_;
    std::vector<std::unique_ptr<EvalContext>> contexts_;
    const EvalContext *first_ = nullptr; ///< The layout's builder.
};

/**
 * Evaluate a batch of (hwIndex, plan) points through the engine and
 * append every result (including cache hits and pruned OOM verdicts)
 * to @p out in request order. The batch is one evaluateAll call, so
 * it rides the engine's thread pool. Without @p contexts the engine
 * builds a context per hardware point that needs one.
 */
void evaluateInto(const SearchSpace &space, EvalEngine &engine,
                  RunContexts *contexts,
                  std::vector<std::pair<size_t, ParallelPlan>> points,
                  SearchOutcome &out);

/** Registered strategy names, in documentation order. */
const std::vector<std::string> &searchStrategyNames();

/** @throws ConfigError unless @p name is a registered strategy (the
 *  message lists the registered ones). */
void checkSearchStrategy(const std::string &name);

/**
 * Visit points of @p space with the strategy registered as
 * @p strategy. Deterministic for a fixed (space, options) pair and any
 * engine thread count.
 *
 * @param contexts Per-hardware-point contexts to share with the
 *        caller's own evaluations; null = the run keeps its own
 *        (exhaustive, one batch, lets the engine build them).
 * @throws ConfigError on an unknown name (checkSearchStrategy) or an
 *         invalid space.
 */
SearchOutcome runSearch(const std::string &strategy,
                        const SearchSpace &space, EvalEngine &engine,
                        const SearchOptions &options = {},
                        RunContexts *contexts = nullptr);

/**
 * The full plan product for @p space in canonical enumeration order —
 * the exact order StrategyExplorer::explore() has always used (golden
 * suites depend on it): candidate-major over classes in order, all
 * prefetch-enabled, then (with explorePrefetch) the prefetch-off
 * variants of FSDP-bearing plans appended in enumeration order.
 */
std::vector<ParallelPlan> enumeratePlans(const SearchSpace &space);

/** The best valid entry of candidates[from, to) by throughput (the
 *  first wins ties), or null when none of them is valid. */
const SearchCandidate *
bestCandidate(const std::vector<SearchCandidate> &candidates,
              size_t from = 0, size_t to = SIZE_MAX);

/**
 * Build a SearchSpace over the layer classes present in @p desc, with
 * the paper's per-class candidate sets
 * (StrategyExplorer::candidates). @p models, @p desc and @p task are
 * borrowed and must outlive the returned space.
 * @throws ConfigError if the model has no layers.
 */
SearchSpace makeSearchSpace(std::vector<const PerfModel *> models,
                            const ModelDesc &desc, const TaskSpec &task,
                            bool explorePrefetch = false);

} // namespace madmax

#endif // MADMAX_DSE_SEARCH_STRATEGY_HH
