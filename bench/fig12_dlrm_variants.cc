/**
 * @file
 * Regenerates Fig. 12: how the same strategy set interacts with
 * DLRM-A and its transformer/MoE variants. Base dense layers stay at
 * the DLRM-A optimum; the sweep covers the variant-specific layer
 * class. The optimal strategy (the paper's yellow star) moves between
 * variants.
 */

#include "paper.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig12(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 12: strategy interaction across DLRM-A variants",
                  "transformers add overlap opportunities; MoE adds "
                  "blocking All2All — the optimum moves");

    PerfModel madmax(hw_zoo::dlrmTrainingSystem());
    TaskSpec task = TaskSpec::preTraining();

    struct Variant
    {
        ModelDesc model;
        LayerClass sweep_class;
    };
    std::vector<Variant> variants;
    variants.push_back({model_zoo::dlrmA(), LayerClass::BaseDense});
    variants.push_back(
        {model_zoo::dlrmATransformer(), LayerClass::Transformer});
    variants.push_back({model_zoo::dlrmAMoe(), LayerClass::MoE});

    for (const Variant &v : variants) {
        StrategyExplorer explorer(madmax);
        double baseline =
            explorer.baseline(v.model, task).throughput();

        os << "\n" << v.model.name << " (sweeping "
           << toString(v.sweep_class) << " layers):\n";
        AsciiTable table({"strategy", "vs FSDP", "bar", "verdict"});

        double best_rel = 0.0;
        std::string best_label;
        for (HierStrategy hs :
             StrategyExplorer::candidates(v.sweep_class)) {
            ParallelPlan plan;
            plan.fsdpPrefetch = true;
            plan.set(LayerClass::SparseEmbedding,
                     HierStrategy{Strategy::MP});
            // DLRM-A's optimal dense strategy (Fig. 11) everywhere.
            plan.set(LayerClass::BaseDense,
                     HierStrategy{Strategy::TP, Strategy::DDP});
            plan.set(v.sweep_class, hs);
            PerfReport r = madmax.evaluate(v.model, task, plan);
            if (r.valid) {
                double rel = r.throughput() / baseline;
                if (rel > best_rel) {
                    best_rel = rel;
                    best_label = hs.toString();
                }
                table.addRow({hs.toString(), strfmt("%.2fx", rel),
                              asciiBar(rel, 1.5, 30), ""});
            } else {
                table.addRow({hs.toString(), "OOM", "(gray bar)", ""});
            }
        }
        table.print(os);
        os << "optimal (*): " << best_label
           << strfmt(" at %.2fx\n", best_rel);
    }
}
