#include "core/perf_model.hh"

#include "core/eval_context.hh"
#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

PerfModel::PerfModel(ClusterSpec cluster, PerfModelOptions options)
    : cluster_(std::move(cluster)), options_(std::move(options))
{
    cluster_.validate();
    if (cluster_.isHeterogeneous()) {
        fatal(strfmt(
            "PerfModel: cluster '%s' is heterogeneous (%zu device "
            "groups); the flat performance model prices one homogeneous "
            "pool. Evaluate a single group via "
            "ClusterSpec::groupCluster(i), or search phase placements "
            "across groups with exploreInferencePlacements "
            "(`madmax pareto --workload ...`)",
            cluster_.name.c_str(), cluster_.groups.size()));
    }
}

PerfReport
PerfModel::verdict(const ModelDesc &desc, const TaskSpec &task,
                   const ParallelPlan &plan) const
{
    PerfReport report;
    report.modelName = desc.name;
    report.clusterName = cluster_.name;
    report.taskName = task.toString();
    report.plan = plan;
    report.globalBatchSize = desc.globalBatchSize;
    report.contextLength = desc.contextLength;

    report.memory = memory_model::evaluate(desc, task, plan, cluster_);
    report.valid = report.memory.fits() || options_.ignoreMemory;
    return report;
}

PerfReport
PerfModel::evaluate(const ModelDesc &desc, const TaskSpec &task,
                    const ParallelPlan &plan) const
{
    // One-off evaluation: build a throwaway context. Sweeps amortize
    // this across hundreds of plans by building the context once (see
    // EvalEngine::evaluateAll's per-group contexts).
    EvalContext context(*this, desc, task);
    return context.evaluate(plan);
}

} // namespace madmax
