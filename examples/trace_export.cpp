/**
 * @file
 * Execution-trace export (the Fig. 6 visualization).
 *
 * Generates the per-device compute/communication streams for one
 * DLRM-A-Transformer training iteration, prints an ASCII swimlane
 * with exposed communication visible, and writes a Chrome Trace
 * Event JSON loadable in chrome://tracing or Perfetto.
 */

#include <fstream>
#include <iostream>

#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "trace/chrome_trace.hh"
#include "util/strfmt.hh"

using namespace madmax;

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "dlrm_transformer_trace.json";

    ModelDesc model = model_zoo::dlrmATransformer();
    PerfModelOptions opts;
    opts.keepTimeline = true; // Trace export reads the timeline.
    PerfModel madmax(hw_zoo::dlrmTrainingSystem(), opts);

    ParallelPlan plan;
    plan.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});
    plan.set(LayerClass::Transformer,
             HierStrategy{Strategy::TP, Strategy::DDP});

    PerfReport report =
        madmax.evaluate(model, TaskSpec::preTraining(), plan);
    std::cout << report.summary() << "\n";
    std::cout << "per-device streams ('#' compute, '=' blocking comm, "
                 "'-' background comm):\n\n";
    std::cout << asciiStreams(report.timeline, 76) << "\n";

    std::ofstream out(out_path);
    writeChromeTrace(report.timeline, out);
    std::cout << "wrote " << out_path
              << " (open in chrome://tracing)\n";
    return 0;
}
