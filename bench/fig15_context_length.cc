/**
 * @file
 * Regenerates Fig. 15: throughput gains from parallelization-strategy
 * tuning across LLMs of increasing context length — LLaMA (2K),
 * LLaMA2 (4K), and LLaMA2 with doubled context (8K). Gains shrink
 * with context (Insight 6), pointing beyond pure parallelization
 * exploration. Memory constraints are lifted so the replication
 * strategies the paper plots stay comparable across contexts.
 */

#include "paper.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig15(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 15: context-length scaling (2K/4K/8K)",
                  "gains from strategy tuning diminish with context "
                  "length");

    PerfModelOptions opts;
    opts.ignoreMemory = true; // Compare strategies uniformly.
    PerfModel madmax(hw_zoo::llmTrainingSystem(), opts);
    TaskSpec task = TaskSpec::preTraining();

    std::vector<ModelDesc> models;
    models.push_back(model_zoo::llama65b());            // 2K.
    models.push_back(model_zoo::llama2_70b());          // 4K.
    models.push_back(model_zoo::llama2WithContext(8192)); // 8K.

    AsciiTable table({"model", "ctx", "(DDP) vs FSDP",
                      "(TP, DDP) vs FSDP", "fits memory?"});
    for (const ModelDesc &model : models) {
        PerfReport fsdp = madmax.evaluate(model, task,
                                          ParallelPlan::fsdpBaseline());

        ParallelPlan ddp = ParallelPlan::fsdpBaseline();
        ddp.set(LayerClass::Transformer, HierStrategy{Strategy::DDP});
        PerfReport r_ddp = madmax.evaluate(model, task, ddp);

        ParallelPlan tp_ddp = ParallelPlan::fsdpBaseline();
        tp_ddp.set(LayerClass::Transformer,
                   HierStrategy{Strategy::TP, Strategy::DDP});
        PerfReport r_tp = madmax.evaluate(model, task, tp_ddp);

        table.addRow(
            {model.name, strfmt("%ldK", model.contextLength / 1024),
             strfmt("%.3fx",
                    r_ddp.throughput() / fsdp.throughput()),
             strfmt("%.3fx", r_tp.throughput() / fsdp.throughput()),
             r_tp.memory.fits() ? "yes" : "no (needs more HBM)"});
    }
    table.print(os);

    os << "\nInsight 6: longer contexts grow compute and "
          "activation volumes while parameter communication "
          "stays fixed, so every strategy converges toward the "
          "compute bound and tuning gains shrink.\n";
}
