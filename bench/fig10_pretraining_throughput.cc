/**
 * @file
 * Regenerates Fig. 10 (the headline result): pre-training throughput
 * of every Table II model under MAD-Max-identified hierarchical
 * strategies, normalized to the FSDP baseline — with and without the
 * memory constraints of current systems (blue vs orange bars).
 */

#include "paper.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig10(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 10: pre-training throughput vs FSDP baseline",
                  "avg +65.9% from layer-type strategy tuning; up to "
                  "2.24x constrained, 2.43x unconstrained");

    for (TaskSpec task :
         {TaskSpec::preTraining(), TaskSpec::inference()}) {
        os << "\n(" << task.toString() << ")\n";
        AsciiTable table({"model", "FSDP", "best (memory-constrained)",
                          "speedup", "best plan",
                          "unconstrained speedup"});
        std::vector<double> speedups;
        double max_speedup = 0.0, max_unconstrained = 0.0;

        for (const ModelDesc &model : model_zoo::tableIISuite()) {
            ClusterSpec cluster = model.isRecommendation
                ? hw_zoo::dlrmTrainingSystem()
                : hw_zoo::llmTrainingSystem();
            PerfModel madmax(cluster);
            StrategyExplorer explorer(madmax);
            PerfModelOptions no_memory_limit;
            no_memory_limit.ignoreMemory = true;
            PerfModel madmax_u(cluster, no_memory_limit);

            PerfReport baseline = explorer.baseline(model, task);
            ExplorationResult best = explorer.best(model, task);
            ExplorationResult best_u =
                StrategyExplorer(madmax_u).best(model, task);

            double speedup =
                best.report.throughput() / baseline.throughput();
            double speedup_u =
                best_u.report.throughput() / baseline.throughput();
            speedups.push_back(speedup);
            max_speedup = std::max(max_speedup, speedup);
            max_unconstrained = std::max(max_unconstrained, speedup_u);

            // Compact per-class plan: only classes the model has.
            std::string plan;
            for (LayerClass cls :
                 {LayerClass::BaseDense, LayerClass::Transformer,
                  LayerClass::MoE}) {
                if (model.graph.hasClass(cls)) {
                    if (!plan.empty())
                        plan += " ";
                    plan += best.plan.strategyFor(cls).toString();
                }
            }

            table.addRow({model.name,
                          formatCount(baseline.throughput()) + "/s",
                          formatCount(best.report.throughput()) + "/s",
                          strfmt("%.2fx", speedup), plan,
                          strfmt("%.2fx", speedup_u)});
        }
        table.print(os);
        if (task.kind == TaskKind::PreTraining) {
            os << strfmt(
                "average speedup: %.1f%%; max %.2fx constrained / "
                "%.2fx unconstrained (paper: +65.9%% avg, up to "
                "2.24x / 2.43x)\n",
                (mean(speedups) - 1.0) * 100.0, max_speedup,
                max_unconstrained);
        } else {
            os << strfmt(
                "max inference speedup: %.2fx constrained / %.2fx "
                "unconstrained (paper: up to 5.27x / 12.13x)\n",
                max_speedup, max_unconstrained);
        }
    }
}
