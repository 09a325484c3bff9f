/**
 * @file
 * Regenerates Fig. 14: task-level diversity for DLRM-A on the same
 * system — pre-training, inference, and the two fine-tuning scopes —
 * showing per-task optimal strategies and how DDP becomes valid once
 * gradients/optimizer states shrink (Insight 5).
 */

#include "paper.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig14(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 14: task-level diversity (DLRM-A)",
                  "DDP is invalid for pre-training but viable for "
                  "inference/fine-tuning; speedup over FSDP varies by "
                  "task");

    ModelDesc model = model_zoo::dlrmA();
    PerfModel madmax(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(madmax);

    const TaskSpec tasks[] = {
        TaskSpec::preTraining(),
        TaskSpec::inference(),
        TaskSpec::fineTuning(FineTuneScope::DenseOnly),
        TaskSpec::fineTuning(FineTuneScope::EmbeddingOnly),
    };

    AsciiTable table({"task", "FSDP", "best", "speedup", "best plan",
                      "(DDP) dense valid?"});
    for (const TaskSpec &task : tasks) {
        PerfReport baseline = explorer.baseline(model, task);
        ExplorationResult best = explorer.best(model, task);

        ParallelPlan ddp;
        ddp.set(LayerClass::SparseEmbedding,
                HierStrategy{Strategy::MP});
        ddp.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
        bool ddp_valid = madmax.evaluate(model, task, ddp).valid;

        table.addRow(
            {task.toString(),
             formatCount(baseline.throughput()) + "/s",
             formatCount(best.report.throughput()) + "/s",
             strfmt("%.2fx",
                    best.report.throughput() / baseline.throughput()),
             best.plan.strategyFor(LayerClass::BaseDense).toString(),
             ddp_valid ? "yes" : "no (OOM)"});
    }
    table.print(os);

    os << "\nInsight 5: embedding-only fine-tuning skips the "
          "costly MLP weight-gradient work, so its optimal "
          "ordering resembles inference.\n";
}
