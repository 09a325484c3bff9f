/**
 * @file
 * Cloud deployment planner (the Fig. 1 / Fig. 16 workflow).
 *
 * For a target workload, evaluates every catalog cloud instance type
 * with both the default FSDP mapping and a MAD-Max-optimized mapping,
 * reports elapsed time and A100-normalized aggregate GPU-hours per
 * billion samples, and extracts the pareto frontier.
 */

#include <iostream>

#include "dse/pareto.hh"
#include "dse/strategy_explorer.hh"
#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/strfmt.hh"
#include "util/table.hh"

using namespace madmax;

int
main()
{
    const ModelDesc model = model_zoo::dlrmA();
    const TaskSpec task = TaskSpec::preTraining();
    const double samples = 1e9;
    const double a100_peak = hw_zoo::a100_40().peakFlopsTensor16;

    AsciiTable table({"instance", "mapping", "elapsed (1B samples)",
                      "norm. GPU-hours", "plan"});
    std::vector<ParetoPoint> points;
    std::vector<std::string> labels;

    for (const hw_zoo::CloudInstance &inst :
         hw_zoo::cloudInstances(16)) {
        PerfModel madmax(inst.cluster);
        StrategyExplorer explorer(madmax);

        PerfReport fsdp = explorer.baseline(model, task);
        ExplorationResult best = explorer.best(model, task);
        for (const auto &[label, report, plan] :
             {std::tuple<const char *, const PerfReport &, std::string>{
                  "FSDP", fsdp, "(baseline)"},
              {"MAD-Max", best.report, best.plan.toString()}}) {
            if (!report.valid) {
                table.addRow({inst.name, label, "OOM", "-", plan});
                continue;
            }
            double elapsed = samples / report.throughput();
            double hours = normalizedGpuHours(report, inst.cluster,
                                              samples, a100_peak);
            table.addRow({inst.name, label, formatTime(elapsed),
                          strfmt("%.0f", hours), plan});
            points.push_back(
                ParetoPoint{hours, 1.0 / elapsed, points.size()});
            labels.push_back(inst.name + std::string(" / ") + label);
        }
    }
    table.print(std::cout);

    std::cout << "\npareto-optimal configurations (cost vs speed):\n";
    for (size_t idx : paretoFrontier(points))
        std::cout << "  - " << labels[idx] << "\n";
    return 0;
}
