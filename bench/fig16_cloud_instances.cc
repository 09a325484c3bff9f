/**
 * @file
 * Regenerates Fig. 16: DLRM-A training across public-cloud GPU
 * instances — elapsed time vs. A100-normalized aggregate GPU-hours
 * per 1B samples — for default FSDP and MAD-Max-optimized mappings.
 * Paper: up to 33% training-time and 21% compute-resource reduction.
 *
 * Runs on the ParetoEngine over the cloud hardware catalog with the
 * exhaustive strategy, which reproduces the historical per-instance
 * explorer sweep byte for byte.
 */

#include <algorithm>
#include <map>

#include "paper.hh"
#include "dse/pareto_engine.hh"
#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig16(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 16: cloud-instance deployment study (DLRM-A)",
                  "up to 33% training-time and 21% GPU-hour reduction "
                  "from joint instance + mapping choice");

    const ModelDesc model = model_zoo::dlrmA();
    const TaskSpec task = TaskSpec::preTraining();
    const double samples = 1e9;
    const double a100_peak = hw_zoo::a100_40().peakFlopsTensor16;

    ParetoEngine pareto(cloudHardwareCatalog(16));
    ParetoFrontier frontier = pareto.explore(model, task);

    std::map<size_t, const ParetoCandidate *> best_by_hw;
    for (const ParetoCandidate &c : frontier.bestPerHw)
        best_by_hw[c.hwIndex] = &c;

    AsciiTable table({"instance", "GPUs", "mapping", "elapsed/1B",
                      "agg GPU-hrs/1B (norm)", "plan"});
    double best_time_fsdp = 1e300, best_time_tuned = 1e300;
    double best_hours_fsdp = 1e300, best_hours_tuned = 1e300;

    for (size_t hw = 0; hw < pareto.hardware().size(); ++hw) {
        const HardwarePoint &inst = pareto.hardware()[hw];
        const PerfReport &fsdp = frontier.baselines[hw].report;
        auto it = best_by_hw.find(hw);
        if (it == best_by_hw.end()) {
            table.addRow({inst.name,
                          std::to_string(inst.cluster.numDevices()),
                          "MAD-Max", "no plan fits", "-", "-"});
            continue;
        }
        const ParetoCandidate &best = *it->second;

        if (fsdp.valid) {
            double t = samples / fsdp.throughput() / 3600.0;
            double h = normalizedGpuHours(fsdp, inst.cluster, samples,
                                          a100_peak);
            best_time_fsdp = std::min(best_time_fsdp, t);
            best_hours_fsdp = std::min(best_hours_fsdp, h);
            table.addRow({inst.name,
                          std::to_string(inst.cluster.numDevices()),
                          "FSDP", strfmt("%.2f hr", t),
                          strfmt("%.0f", h), "(baseline)"});
        } else {
            table.addRow({inst.name,
                          std::to_string(inst.cluster.numDevices()),
                          "FSDP", "OOM", "-", "(baseline)"});
        }
        double t = samples / best.report.throughput() / 3600.0;
        double h = normalizedGpuHours(best.report, inst.cluster,
                                      samples, a100_peak);
        best_time_tuned = std::min(best_time_tuned, t);
        best_hours_tuned = std::min(best_hours_tuned, h);
        table.addRow({inst.name,
                      std::to_string(inst.cluster.numDevices()),
                      "MAD-Max", strfmt("%.2f hr", t),
                      strfmt("%.0f", h), best.plan.toString()});
    }
    table.print(os);

    os << strfmt(
        "\nbest-achievable improvements over the FSDP frontier: "
        "%.0f%% training time, %.0f%% normalized GPU-hours "
        "(paper: 33%% / 21%%)\n",
        (1.0 - best_time_tuned / best_time_fsdp) * 100.0,
        (1.0 - best_hours_tuned / best_hours_fsdp) * 100.0);
}
