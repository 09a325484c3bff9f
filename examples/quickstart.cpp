/**
 * @file
 * Quickstart: evaluate one workload-system mapping and read the
 * report.
 *
 * Builds DLRM-A (Table II), binds MAD-Max to the 128-GPU ZionEX
 * system (Table III), and compares the FSDP baseline against the
 * throughput-optimal plan found by the explorer — the paper's core
 * workflow in ~40 lines.
 */

#include <cstdio>

#include "core/perf_model.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/strfmt.hh"

using namespace madmax;

int
main()
{
    // 1. Pick a model and a distributed system.
    ModelDesc model = model_zoo::dlrmA();
    ClusterSpec cluster = hw_zoo::dlrmTrainingSystem();

    // 2. Bind the performance model to the system.
    PerfModel madmax(cluster);

    // 3. Evaluate the industry-standard FSDP baseline.
    TaskSpec task = TaskSpec::preTraining();
    PerfReport baseline =
        madmax.evaluate(model, task, ParallelPlan::fsdpBaseline());
    std::printf("--- FSDP baseline ---\n%s\n",
                baseline.summary().c_str());

    // 4. Let the explorer find the best hierarchical plan.
    StrategyExplorer explorer(madmax);
    ExplorationResult best = explorer.best(model, task);
    std::printf("--- MAD-Max optimal ---\n%s\n",
                best.report.summary().c_str());

    std::printf("speedup over FSDP: %.2fx with %s\n",
                best.report.throughput() / baseline.throughput(),
                best.plan.toString().c_str());
    return 0;
}
