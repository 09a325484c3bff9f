/**
 * @file
 * Regenerates Table I: validation of first-order execution metrics
 * against the paper's published measurements (DLRM-A/B on the
 * 128-GPU ZionEX system; LLaMA on 2048 A100-80GB).
 */

#include <cmath>

#include "paper.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

namespace
{

/** Accuracy of a model estimate vs. a measured value, as the paper
 *  reports it (100% minus relative error). */
std::string
accuracy(double ours, double reference)
{
    double acc = 1.0 - std::abs(ours - reference) / std::abs(reference);
    return strfmt("%.2f%%", acc * 100.0);
}

} // namespace

void
paper::table1(std::ostream &os)
{
    bench::banner(os,
                  "Table I: validation of first-order execution metrics",
                  "97%/91% prediction accuracy on serialized/overlapped "
                  "execution");

    AsciiTable table({"metric", "measured (paper)", "paper model",
                      "this model", "our accuracy"});

    // --- DLRM-A on ZionEX with the Fig. 11-optimal plan. ---
    PerfModel zion(hw_zoo::dlrmTrainingSystem());
    ParallelPlan dlrm_plan;
    dlrm_plan.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    dlrm_plan.set(LayerClass::BaseDense,
                  HierStrategy{Strategy::TP, Strategy::DDP});
    PerfReport a = zion.evaluate(model_zoo::dlrmA(),
                                 TaskSpec::preTraining(), dlrm_plan);

    double a_serialized_ms = a.serializedTime * 1e3;
    table.addRow({"DLRM-A serialized iteration time (ms)", "67.40",
                  "65.30", strfmt("%.2f", a_serialized_ms),
                  accuracy(a_serialized_ms, 67.40)});

    double a_exposed = a.exposedFraction() * 100.0;
    table.addRow({"DLRM-A % communication exposed", "82.37%", "75.46%",
                  strfmt("%.2f%%", a_exposed),
                  accuracy(a_exposed, 82.37)});

    double a_mqps = a.throughput() / 1e6;
    table.addRow({"DLRM-A throughput (MQPS)", "1.20", "1.21",
                  strfmt("%.2f", a_mqps), accuracy(a_mqps, 1.2)});

    // --- DLRM-B. Table II's aggregates under-determine its real
    // bottleneck; docs/table1_dlrm_b.md analyses the discrepancy. ---
    PerfReport b = zion.evaluate(model_zoo::dlrmB(),
                                 TaskSpec::preTraining(), dlrm_plan);
    double b_mqps = b.throughput() / 1e6;
    table.addRow({"DLRM-B throughput (MQPS)", "3.40", "3.06",
                  strfmt("%.2f (optimistic)", b_mqps),
                  "n/a -> table1_dlrm_b.md"});

    // --- LLaMA on the 2048-GPU system. ---
    // LLaMA production training ran the optimized (prefetching)
    // FSDP implementation the paper validates in Fig. 9.
    PerfModel llm(hw_zoo::llmTrainingSystem());
    ParallelPlan llama_plan = ParallelPlan::fsdpBaseline();
    llama_plan.fsdpPrefetch = true;
    PerfReport l = llm.evaluate(model_zoo::llama65b(),
                                TaskSpec::preTraining(), llama_plan);
    double gpu_hours = 306000.0 * l.iterationTime / 3600.0 * 2048.0;
    table.addRow({"LLaMA GPU-hours for 306k steps (2048 A100)",
                  "1,022,361", "863,397", strfmt("%.0f", gpu_hours),
                  accuracy(gpu_hours, 1022361.0)});

    double days = 1.4e12 / l.tokensPerSecond() / 86400.0;
    table.addRow({"LLaMA days to train 1.4T tokens", "20.83", "19.21",
                  strfmt("%.2f", days), accuracy(days, 20.83)});

    table.print(os);
    os << "\nTable III systems used: "
       << zion.cluster().name << " and " << llm.cluster().name
       << "\n";
}
