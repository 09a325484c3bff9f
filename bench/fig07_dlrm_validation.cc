/**
 * @file
 * Regenerates Fig. 7: DLRM-A serialized and overlapped execution on
 * 8-GPU (single-node) and 128-GPU ZionEX platforms, checking layer
 * execution and collective volumes (serialized), latency-hiding
 * (overlapped), and network scaling across node counts.
 */

#include "paper.hh"
#include "core/perf_model.hh"
#include "core/validation.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig07(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 7: DLRM-A serialized & overlapped validation, "
                  "8- vs 128-GPU",
                  "128-GPU measured: 67.40 ms serialized; modeled "
                  "65.30 ms");

    ParallelPlan plan;
    plan.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});

    // Single-node runs keep the same per-device batch share.
    ModelDesc model128 = model_zoo::dlrmA();
    ModelDesc model8 = model_zoo::dlrmA();
    model8.globalBatchSize = model128.globalBatchSize / 16;

    AsciiTable table({"system", "mode", "total", "EmbLookup", "GEMM",
                      "All2All", "AllReduce", "exposed comm"});
    for (auto [nodes, model] :
         {std::pair<int, const ModelDesc *>{1, &model8},
          {16, &model128}}) {
        ClusterSpec cluster =
            hw_zoo::dlrmTrainingSystem().withNumNodes(nodes);
        PerfModel madmax(cluster);
        PerfReport r =
            madmax.evaluate(*model, TaskSpec::preTraining(), plan);
        auto get = [&](EventCategory cat) {
            return categorySeconds(r.serializedBreakdown, cat);
        };
        std::string sys = strfmt("%d-GPU", cluster.numDevices());
        table.addRow({sys, "serialized", formatTime(r.serializedTime),
                      formatTime(get(EventCategory::EmbeddingLookup)),
                      formatTime(get(EventCategory::Gemm)),
                      formatTime(get(EventCategory::All2All)),
                      formatTime(get(EventCategory::AllReduce)), "-"});
        table.addRow({sys, "overlapped", formatTime(r.iterationTime),
                      "-", "-", "-", "-",
                      formatTime(r.exposedCommTime)});
        table.addSeparator();
    }
    table.print(os);

    os << "\nNetwork-scaling effect: the single-node system "
          "rides NVLink for the All2All, the 16-node system is "
          "bound by the RoCE fabric (Effective All2All BW = "
          "slowest interconnect, SIV-C).\n";

    // Per-segment validation against the published 128-GPU
    // measurements, via the library's validation API.
    PerfModel madmax(hw_zoo::dlrmTrainingSystem());
    PerfReport r =
        madmax.evaluate(model128, TaskSpec::preTraining(), plan);
    MeasuredReference ref;
    ref.name = "DLRM-A, 128 x A100 ZionEX (Table I)";
    ref.iterationTime = 0.0562;    // Implied by 67.40 ms serialized
                                   // at 82.37% exposure.
    ref.exposedFraction = 0.8237;
    os << "\nvalidation vs published measurements ("
       << ref.name << "):\n"
       << validate(r, ref).toString();
}
