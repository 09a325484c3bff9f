/**
 * @file
 * Multi-objective design-space exploration engine (§V, Figs. 1/13/16/
 * 17): searches the joint (hardware point x parallelization plan)
 * space through an EvalEngine and returns the Pareto frontier of
 * {throughput, perf-per-TCO, memory headroom} — every returned point
 * is non-dominated among everything the search visited, so the
 * frontier is free of dominated points by construction.
 *
 * The search runs through runSearch (dse/search_strategy.hh): exhaustive
 * reproduces the historical full sweeps bit-for-bit, while the guided
 * strategies (coordinate-descent, annealing, genetic) trade frontier
 * completeness for an evaluation budget — EvalStats on the result
 * makes that trade measurable.
 *
 * Consumers: `madmax pareto` (CLI), `POST /v1/pareto` (serve), and
 * the Fig. 1/13/16 bench binaries. Full reference: docs/dse.md.
 */

#ifndef MADMAX_DSE_PARETO_ENGINE_HH
#define MADMAX_DSE_PARETO_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/inference_model.hh"
#include "dse/search_strategy.hh"

namespace madmax
{

/**
 * One hardware design point of the joint space: a cluster shape plus
 * the cost-normalization metadata of the paper's cloud studies.
 */
struct HardwarePoint
{
    std::string name;    ///< Display name (defaults to cluster.name).
    ClusterSpec cluster;

    /** Device peak / A100 peak, the Fig. 16 GPU-hour normalizer. */
    double a100PeakRatio = 1.0;
};

/**
 * Placeholder for exploreInferencePlacements' cost argument, which
 * existing callers pass as {}; the rate itself is a constant
 * (docs/dse.md §cost model).
 */
struct CostModelOptions
{
};

/** The three maximized objectives of one candidate. */
struct ParetoObjectives
{
    double throughput = 0.0;       ///< Samples (queries) per second.
    double perfPerTco = 0.0;       ///< Throughput per $/hour of fleet.
    double memHeadroomBytes = 0.0; ///< usableCapacity - footprint.
};

/** One evaluated candidate of the joint space. */
struct ParetoCandidate
{
    size_t hwIndex = 0;  ///< Index into ParetoEngine::hardware().
    ParallelPlan plan;
    PerfReport report;
    ParetoObjectives objectives; ///< Meaningful when report.valid.
};

/** ParetoEngine::explore knobs. */
struct ParetoOptions
{
    /** Registry name: exhaustive | coordinate-descent | annealing |
     *  genetic (searchStrategyNames()). */
    std::string strategy = "exhaustive";

    /** Seed / evaluation-budget knobs for the guided strategies. */
    SearchOptions search;

    /**
     * Also evaluate the FSDP baseline plan on every hardware point
     * and report it in ParetoFrontier::baselines — the default-
     * mapping frontier the paper's Fig. 1/16 normalize against.
     * Baseline evaluations count toward search.maxEvaluations.
     */
    bool includeBaselines = true;
};

/** The result of one multi-objective exploration. */
struct ParetoFrontier
{
    /**
     * The non-dominated subset of everything the search visited, in
     * descending-throughput order. Candidates with bitwise-identical
     * objective vectors appear once (first visit wins).
     */
    std::vector<ParetoCandidate> points;

    /** Every point the search visited, in visit order (exhaustive:
     *  canonical enumeration order). Includes OOM candidates. */
    std::vector<ParetoCandidate> candidates;

    /** Throughput-best valid candidate per hardware point; hardware
     *  points where nothing fits are absent. */
    std::vector<ParetoCandidate> bestPerHw;

    /** FSDP-baseline evaluation per hardware point (including OOM
     *  verdicts), in hardware order; empty if disabled. */
    std::vector<ParetoCandidate> baselines;

    /** Which strategy produced this frontier. */
    std::string strategy;

    /** Whole-search cost (baselines included). */
    EvalStats stats;
};

/**
 * @name Serving-placement search space
 * The joint space of an LLM serving deployment on a mixed-generation
 * cluster: which island runs prefill, which runs decode (p == d is
 * the classic colocated deployment), and which parallelization plan
 * each phase uses. A homogeneous cluster degenerates to one island
 * and colocated-only placement. Searched by
 * exploreInferencePlacements() below.
 */
/// @{

/** The three maximized objectives of one serving placement. */
struct InferencePlacementObjectives
{
    double tokensPerSecond = 0.0; ///< Generated tokens/s, fleet-wide.

    /**
     * tokensPerSecond per $/hour of the WHOLE fleet — every placement
     * on one cluster is priced against all of its islands (you pay
     * for the pool whether a phase uses it or not), so leaving an
     * island idle shows up as a worse perf-per-TCO, not a cheaper
     * deployment.
     */
    double perfPerTco = 0.0;

    /** KV-capacity ceiling on resident sequences (admission control). */
    double maxConcurrentSequences = 0.0;
};

/** One evaluated placement of the serving joint space. */
struct InferencePlacementCandidate
{
    int prefillIsland = 0; ///< Index into frontier islands.
    int decodeIsland = 0;
    ParallelPlan prefillPlan;
    ParallelPlan decodePlan;
    InferenceReport report;
    InferencePlacementObjectives objectives; ///< Meaningful when valid.
};

/** The result of one serving-placement exploration. */
struct InferencePlacementFrontier
{
    /** The evaluable islands (group name, or cluster name when
     *  homogeneous), in ClusterSpec::groups order. */
    std::vector<std::string> islands;

    /** Every placement evaluated, in (prefill, decode) enumeration
     *  order. Includes invalid (OOM) placements. */
    std::vector<InferencePlacementCandidate> candidates;

    /** The non-dominated valid placements, descending tokens/s. */
    std::vector<InferencePlacementCandidate> points;

    /** Whole-search evaluation cost (per-phase plan sweeps). */
    EvalStats stats;
};

/// @}

/**
 * The multi-objective DSE engine. Construction validates every
 * hardware point's cluster (PerfModel construction); explore() is
 * const and thread-safe under the same contract as StrategyExplorer.
 */
class ParetoEngine
{
  public:
    /**
     * @param hardware The hardware points of the joint space.
     * @param engine Shared evaluation engine; null = private serial
     *        engine (memoizing, one thread), same as StrategyExplorer.
     * @throws ConfigError on an empty catalog or an invalid cluster.
     */
    explicit ParetoEngine(std::vector<HardwarePoint> hardware,
                          EvalEngine *engine = nullptr);

    const std::vector<HardwarePoint> &hardware() const { return hw_; }

    /**
     * Search the joint space with options.strategy and extract the
     * multi-objective frontier. Deterministic for fixed options and
     * any engine thread count.
     * @throws ConfigError on an unknown strategy name, before anything
     *         is evaluated.
     */
    ParetoFrontier explore(const ModelDesc &desc, const TaskSpec &task,
                           const ParetoOptions &options = {}) const;

  private:
    EvalEngine &engine() const;

    std::vector<HardwarePoint> hw_;
    std::vector<PerfModel> models_; ///< One per hardware point.
    EvalEngine *shared_;                ///< Borrowed; may be null.
    std::unique_ptr<EvalEngine> owned_; ///< Serial fallback.
};

/**
 * Objectives for one evaluated candidate. TCO is modeled as a rental
 * rate: numDevices x a100PeakRatio x kDollarsPerA100Hour (a constant
 * in pareto_engine.cc) — capability-normalized so an H100 fleet is
 * priced proportionally to the silicon it packs, matching the paper's
 * A100-normalized GPU-hour resource axis (docs/dse.md §cost model).
 */
ParetoObjectives
scoreObjectives(const PerfReport &report, const HardwarePoint &hw);

/**
 * Search serving placements of @p workload for @p desc on @p cluster.
 * Plan selection is one runSearch("exhaustive") per phase over the
 * islands that run it (the space is small — the guided strategies are
 * not needed); colocated placements pick the single plan maximizing
 * the composed request rate, disaggregated ones pick each phase's best
 * plan independently. The whole fleet is priced for perf-per-TCO at
 * scoreObjectives' rate; a null @p engine means one private serial
 * engine.
 * @throws ConfigError on an invalid cluster or workload.
 */
InferencePlacementFrontier
exploreInferencePlacements(const ModelDesc &desc,
                           const InferenceWorkload &workload,
                           const ClusterSpec &cluster,
                           const CostModelOptions &cost = {},
                           EvalEngine *engine = nullptr);

/**
 * Machine-readable placement-frontier rendering, shared byte-for-byte
 * by `madmax pareto --workload ... --format json` and `/v1/pareto`.
 */
JsonValue toJson(const InferencePlacementFrontier &frontier);

/// @}

/**
 * The public-cloud instance catalog (hw_zoo::cloudInstances) as
 * hardware points — the Figs. 1/16 joint space.
 */
std::vector<HardwarePoint> cloudHardwareCatalog(int num_nodes = 16);

/** A single-cluster hardware point, its A100 peak ratio derived from
 *  the device datasheet (1.0 when the device lists no tensor peak). */
HardwarePoint makeHardwarePoint(const ClusterSpec &cluster);

/**
 * One base cluster swept across node counts — the single-system joint
 * space (e.g. "how many ZionEX nodes should this job rent?").
 * @throws ConfigError if @p node_counts is empty or non-positive.
 */
std::vector<HardwarePoint>
nodeCountSweep(const ClusterSpec &cluster,
               const std::vector<int> &node_counts);

/**
 * Machine-readable frontier rendering, shared byte-for-byte by
 * `madmax pareto --format json` and the serving API's `/v1/pareto`
 * (reports render through toJson(PerfReport)).
 */
JsonValue toJson(const ParetoFrontier &frontier,
                 const std::vector<HardwarePoint> &hardware);

} // namespace madmax

#endif // MADMAX_DSE_PARETO_ENGINE_HH
