/**
 * @file
 * The MAD-Max performance model facade (§IV): takes a model
 * architecture, task, parallelization plan and distributed-system
 * description; generates per-device compute and communication
 * streams; schedules them; and reports throughput, exposed
 * communication and execution breakdowns.
 */

#ifndef MADMAX_CORE_PERF_MODEL_HH
#define MADMAX_CORE_PERF_MODEL_HH

#include <optional>

#include "collective/collective.hh"
#include "core/memory_model.hh"
#include "core/report.hh"
#include "hw/cluster.hh"
#include "hw/utilization.hh"
#include "model/model_desc.hh"
#include "parallel/strategy.hh"
#include "task/task.hh"

namespace madmax
{

/** Knobs for a PerfModel instance. */
struct PerfModelOptions
{
    /** Batch-dependent SM utilization (Fig. 8); fixed factor if unset. */
    std::optional<SmUtilizationModel> smModel;

    /** AllReduce algorithm (ring / tree / NCCL-style auto). */
    AllReduceAlgorithm allReduceAlgorithm = AllReduceAlgorithm::Auto;

    /** Schedule non-blocking collectives on a separate channel
     *  (disable only for the ablation study). */
    bool backgroundCommChannel = true;

    /** Retain the full scheduled Timeline in reports. Off by default:
     *  no JSON output contains it. Trace export (`madmax evaluate
     *  --trace`, the stream figures) turns it on. */
    bool keepTimeline = false;

    /** Evaluate plans even when they exceed device memory (the
     *  paper's "without memory constraints" bars in Fig. 10). */
    bool ignoreMemory = false;
};

/**
 * An immutable performance model bound to one cluster. Thread-safe
 * for concurrent evaluate() calls.
 *
 * evaluate() prices a single point and internally builds a throwaway
 * EvalContext (core/eval_context.hh). Sweeps evaluating many plans
 * against one (model, task) should go through EvalEngine::evaluateAll
 * or hold an EvalContext directly: the plan-invariant work
 * (validation, compute times, resolved collectives) is then
 * paid once instead of per plan.
 */
class PerfModel
{
  public:
    explicit PerfModel(ClusterSpec cluster, PerfModelOptions options = {});

    /**
     * Evaluate one (model, task, plan) mapping.
     *
     * An OOM plan yields a report with valid == false and the memory
     * verdict filled in; timing fields are still populated when
     * options.ignoreMemory is set (hypothetical-hardware analysis).
     */
    PerfReport evaluate(const ModelDesc &desc, const TaskSpec &task,
                        const ParallelPlan &plan) const;

    /**
     * Memory-only evaluation: fills the identity fields and the
     * per-device memory verdict without splicing or scheduling any
     * streams. For a plan that does not fit (and with
     * ignoreMemory unset) the result is identical to evaluate() —
     * the cheap feasibility check for one-off callers. Sweeps ask
     * EvalContext::verdict, which prices from terms read once.
     */
    PerfReport verdict(const ModelDesc &desc, const TaskSpec &task,
                       const ParallelPlan &plan) const;

    const ClusterSpec &cluster() const { return cluster_; }
    const PerfModelOptions &options() const { return options_; }

  private:
    ClusterSpec cluster_;
    PerfModelOptions options_;
};

} // namespace madmax

#endif // MADMAX_CORE_PERF_MODEL_HH
