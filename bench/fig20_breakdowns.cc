/**
 * @file
 * Regenerates Fig. 20: serialized-execution breakdowns (a, c) and
 * computation-communication overlap breakdowns (b, d) for DLRM-A and
 * GPT-3 training, on the baseline systems and under the 10x
 * interconnect/compute upgrades of Fig. 19 — explaining *where* the
 * scaling speedups come from.
 */

#include "paper.hh"
#include "dse/strategy_explorer.hh"
#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

namespace
{

void
printBreakdown(std::ostream &os, const char *label, const PerfReport &r)
{
    os << "\n" << label << " — serialized execution:\n";
    AsciiTable serialized({"category", "time", "share"});
    for (const auto &[cat, secs] : r.serializedBreakdown) {
        serialized.addRow({toString(cat), formatTime(secs),
                           formatPercent(secs / r.serializedTime)});
    }
    serialized.print(os);

    os << "communication overlap:\n";
    AsciiTable overlap({"collective", "total", "exposed", "hidden"});
    for (const auto &[cat, secs] : r.serializedBreakdown) {
        if (cat == EventCategory::Gemm ||
            cat == EventCategory::EmbeddingLookup) {
            continue;
        }
        const double exposed = categorySeconds(r.exposedBreakdown, cat);
        overlap.addRow({toString(cat), formatTime(secs),
                        formatTime(exposed),
                        formatTime(secs - exposed)});
    }
    overlap.print(os);
}

} // namespace

void
paper::fig20(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 20: execution and communication breakdowns "
                  "(DLRM-A & GPT-3 training)",
                  "speedups come from faster compute (GPT-3), reduced "
                  "All2All (DLRM), or newly-unlocked strategies");

    struct Case
    {
        const char *label;
        ModelDesc model;
        ClusterSpec cluster;
        HwAxis upgrade;
    };
    std::vector<Case> cases;
    cases.push_back({"(a/b) DLRM-A on ZionEX", model_zoo::dlrmA(),
                     hw_zoo::dlrmTrainingSystem(),
                     HwAxis::InterBandwidth});
    cases.push_back({"(c/d) GPT-3 on the LLM system", model_zoo::gpt3(),
                     hw_zoo::llmTrainingSystem(), HwAxis::Compute});

    for (const Case &c : cases) {
        PerfModel base(c.cluster);
        StrategyExplorer explorer(base);
        ExplorationResult best =
            explorer.best(c.model, TaskSpec::preTraining());
        printBreakdown(os,
                       strfmt("%s (baseline hardware, plan %s)",
                              c.label, best.plan.toString().c_str())
                           .c_str(),
                       best.report);

        PerfModel scaled(scaleAxis(c.cluster, c.upgrade, 10.0));
        StrategyExplorer explorer_scaled(scaled);
        ExplorationResult best_scaled =
            explorer_scaled.best(c.model, TaskSpec::preTraining());
        printBreakdown(
            os,
            strfmt("%s (10x %s, plan %s)", c.label,
                   toString(c.upgrade).c_str(),
                   best_scaled.plan.toString().c_str())
                .c_str(),
            best_scaled.report);
        os << strfmt(
            "\nspeedup from 10x %s: %.2fx\n\n%s\n",
            toString(c.upgrade).c_str(),
            best_scaled.report.throughput() /
         best.report.throughput(),
            std::string(72, '-').c_str());
    }
}
