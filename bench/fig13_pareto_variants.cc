/**
 * @file
 * Regenerates Fig. 13: pareto curves of parallelization strategies
 * for the DLRM-A variants — per-device memory vs. throughput — for
 * (a) pre-training and (b) inference. During inference the MoE
 * variant overtakes the transformer variant (its expert compute is
 * sparse while the expensive gradient routing disappears).
 *
 * Runs on the ParetoEngine over a single hardware point (the DLRM
 * training system), so the joint space degenerates to the plan space;
 * the exhaustive strategy reproduces the historical explore() sweep
 * byte for byte.
 */

#include <algorithm>
#include <map>

#include "paper.hh"
#include "dse/pareto.hh"
#include "dse/pareto_engine.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig13(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 13: memory-vs-throughput pareto for DLRM-A "
                  "variants",
                  "higher memory capacity buys throughput; MoE beats "
                  "transformer at inference");

    ParetoEngine pareto({makeHardwarePoint(hw_zoo::dlrmTrainingSystem())});
    ParetoOptions opts;
    // The FSDP baseline is not part of the enumerated plan space; the
    // historical sweep never plotted it, so keep it out here too.
    opts.includeBaselines = false;

    std::vector<ModelDesc> variants;
    variants.push_back(model_zoo::dlrmA());
    variants.push_back(model_zoo::dlrmATransformer());
    variants.push_back(model_zoo::dlrmAMoe());

    for (TaskSpec task : {TaskSpec::preTraining(), TaskSpec::inference()}) {
        os << "\n(" << task.toString() << ")\n";
        AsciiTable table({"model", "plan (pareto-optimal)",
                          "mem/device", "throughput"});
        std::map<std::string, double> best_tp;
        for (const ModelDesc &model : variants) {
            ParetoFrontier frontier =
                pareto.explore(model, task, opts);
            // Rank like explore() always has: valid plans first,
            // descending throughput, stable on ties — so the 2-D
            // frontier extraction below sees the exact historical
            // input order and its output is byte-identical.
            std::vector<ParetoCandidate> results =
                std::move(frontier.candidates);
            std::stable_sort(
                results.begin(), results.end(),
                [](const ParetoCandidate &a, const ParetoCandidate &b) {
                    if (a.report.valid != b.report.valid)
                        return a.report.valid;
                    return a.report.throughput() >
                        b.report.throughput();
                });
            std::vector<ParetoPoint> pts;
            for (size_t i = 0; i < results.size(); ++i) {
                if (!results[i].report.valid)
                    continue;
                pts.push_back(
                    ParetoPoint{results[i].report.memory.total(),
                                results[i].report.throughput(), i});
            }
            for (size_t idx : paretoFrontier(pts)) {
                const ParetoCandidate &r = results[pts[idx].tag];
                table.addRow(
                    {model.name, r.plan.toString(),
                     formatBytes(r.report.memory.total()),
                     formatCount(r.report.throughput()) + "/s"});
                best_tp[model.name] = std::max(
                    best_tp[model.name], r.report.throughput());
            }
            table.addSeparator();
        }
        table.print(os);

        if (task.kind == TaskKind::Inference) {
            os << strfmt(
                "MoE/transformer inference throughput ratio: %.2fx "
                "(paper: MoE more efficient at inference)\n",
                best_tp["DLRM-A-MoE"] / best_tp["DLRM-A-Transformer"]);
        } else {
            os << strfmt(
                "transformer and MoE variants trail the base model at "
                "pre-training (%.2fx / %.2fx of base)\n",
                best_tp["DLRM-A-Transformer"] / best_tp["DLRM-A"],
                best_tp["DLRM-A-MoE"] / best_tp["DLRM-A"]);
        }
    }
}
