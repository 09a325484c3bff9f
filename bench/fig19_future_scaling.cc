/**
 * @file
 * Regenerates Fig. 19: the future-technologies scaling study —
 * improving compute, memory capacity/bandwidth, and intra-/inter-node
 * interconnect bandwidth by 10x separately and concurrently, for
 * DLRM-A and GPT-3, training and inference. Individual axes are
 * sub-linear; the joint upgrade is super-linear (Insight 10).
 */

#include "paper.hh"
#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig19(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 19: 10x hardware-capability scaling study",
                  "DLRM non-network single axes cap at ~1.64x train / "
                  "2.12x inference; GPT-3 favors compute; all-axes "
                  "scaling is super-linear");

    struct Case
    {
        const char *label;
        ModelDesc model;
        ClusterSpec cluster;
        TaskSpec task;
    };
    std::vector<Case> cases;
    cases.push_back({"(a) DLRM-A pre-training", model_zoo::dlrmA(),
                     hw_zoo::dlrmTrainingSystem(),
                     TaskSpec::preTraining()});
    cases.push_back({"(a) DLRM-A inference", model_zoo::dlrmA(),
                     hw_zoo::dlrmTrainingSystem(),
                     TaskSpec::inference()});
    cases.push_back({"(b) GPT-3 pre-training", model_zoo::gpt3(),
                     hw_zoo::llmTrainingSystem(),
                     TaskSpec::preTraining()});
    cases.push_back({"(b) GPT-3 inference", model_zoo::gpt3(),
                     hw_zoo::llmTrainingSystem(),
                     TaskSpec::inference()});

    for (const Case &c : cases) {
        os << "\n" << c.label << " (speedup at 10x):\n";
        std::vector<ScalingResult> results = hardwareScalingStudy(
            c.cluster, c.model, c.task, 10.0, allHwAxes());

        AsciiTable table({"scaled capability", "speedup", "bar"});
        double best_single = 0.0, all_axes = 0.0;
        for (const ScalingResult &r : results) {
            table.addRow({toString(r.axis),
                          strfmt("%.2fx", r.speedup),
                          asciiBar(r.speedup, 12.0, 36)});
            if (r.axis == HwAxis::All)
                all_axes = r.speedup;
            else
                best_single = std::max(best_single, r.speedup);
        }
        table.print(os);
        os << strfmt("best single axis %.2fx (sub-linear); all "
                     "axes %.2fx%s\n",
                     best_single, all_axes,
                     all_axes > best_single
                         ? " (joint improvement wins)"
                         : "");
    }
}
