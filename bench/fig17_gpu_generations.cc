/**
 * @file
 * Regenerates Fig. 17: DLRM-A pre-training across GPU generations —
 * A100 vs H100 vs H100 SuperPOD — per parallelization strategy.
 * Paper: upgrading only the inter-node fabric (H100 -> SuperPOD)
 * yields 1.82x by accelerating the blocking All2All directly.
 */

#include "paper.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig17(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 17: A100 vs H100 vs H100-SuperPOD (DLRM-A)",
                  "SuperPOD's NVLink scale-out gives ~1.82x over H100 "
                  "for All2All-bound DLRM training");

    ModelDesc model = model_zoo::dlrmA();
    TaskSpec task = TaskSpec::preTraining();

    const std::pair<const char *, ClusterSpec> systems[] = {
        {"A100 (ZionEX)", hw_zoo::dlrmTrainingSystem()},
        {"H100 DGX", hw_zoo::h100System()},
        {"H100 SuperPOD", hw_zoo::h100SuperPodSystem()},
    };

    ParallelPlan tp_ddp;
    tp_ddp.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    tp_ddp.set(LayerClass::BaseDense,
               HierStrategy{Strategy::TP, Strategy::DDP});
    ParallelPlan ddp;
    ddp.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    ddp.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});

    AsciiTable table({"system", "FSDP", "(TP, DDP)", "(DDP)",
                      "best (explorer)"});
    double h100_best = 0.0, pod_best = 0.0, a100_best = 0.0;
    for (const auto &[name, cluster] : systems) {
        PerfModel madmax(cluster);
        StrategyExplorer explorer(madmax);
        auto mqps = [&](const ParallelPlan &plan) -> std::string {
            PerfReport r = madmax.evaluate(model, task, plan);
            return r.valid
                ? strfmt("%.2f MQPS", r.throughput() / 1e6)
                : "OOM";
        };
        ExplorationResult best = explorer.best(model, task);
        double best_tp = best.report.throughput();
        if (std::string(name).find("SuperPOD") != std::string::npos)
            pod_best = best_tp;
        else if (std::string(name).find("H100") != std::string::npos)
            h100_best = best_tp;
        else
            a100_best = best_tp;
        table.addRow({name, mqps(ParallelPlan::fsdpBaseline()),
                      mqps(tp_ddp), mqps(ddp),
                      strfmt("%.2f MQPS", best_tp / 1e6)});
    }
    table.print(os);

    os << strfmt(
        "\nH100 over A100: %.2fx; SuperPOD over H100: %.2fx "
        "(paper: 1.82x from the fabric upgrade alone)\n",
        h100_best / a100_best, pod_best / h100_best);
    os << "H100's larger HBM also unlocks replication-style "
          "plans the A100 could not fit (Insight 8).\n";
}
