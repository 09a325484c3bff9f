/**
 * @file
 * Regenerates Fig. 11: DLRM-A pre-training throughput across dense-
 * layer parallelization strategies (embedding tables stay sharded),
 * normalized to the FSDP baseline. OOM plans render as gray bars.
 * Paper range: 0.19x for ((TP),(MP)) to 1.14x for ((TP,DDP),(MP)).
 */

#include "paper.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig11(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 11: DLRM-A dense-layer strategy sweep",
                  "0.19x ((TP),(MP)) to 1.14x ((TP,DDP),(MP)); "
                  "((DDP),(MP)) OOMs");

    ModelDesc model = model_zoo::dlrmA();
    PerfModel madmax(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(madmax);
    TaskSpec task = TaskSpec::preTraining();
    double baseline = explorer.baseline(model, task).throughput();

    AsciiTable table({"(dense), (emb) strategy", "vs FSDP", "bar",
                      "mem/device"});
    for (const ExplorationResult &r :
         explorer.explore(model, task).results) {
        if (r.plan.strategyFor(LayerClass::SparseEmbedding) !=
            HierStrategy{Strategy::MP}) {
            continue; // Fig. 11 keeps tables in vanilla sharding.
        }
        std::string label =
            "(" + r.plan.strategyFor(LayerClass::BaseDense).toString() +
            ", (MP))";
        if (r.report.valid) {
            double rel = r.report.throughput() / baseline;
            table.addRow({label, strfmt("%.2fx", rel),
                          asciiBar(rel, 1.5, 30),
                          formatBytes(r.report.memory.total())});
        } else {
            table.addRow({label, "OOM", "(gray bar)",
                          formatBytes(r.report.memory.total())});
        }
    }
    table.print(os);

    os
        << "\nInsight 1: intra-node TP rides NVLink for partial "
           "sums; global TP pushes them over RoCE (large slowdown); "
           "full DDP replication of dense params + grads + optimizer "
           "states exceeds the A100-40GB budget.\n";
}
