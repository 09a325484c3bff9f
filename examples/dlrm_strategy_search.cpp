/**
 * @file
 * DLRM parallelization-strategy search (the Fig. 11 workflow).
 *
 * Sweeps every hierarchical (intra, inter) strategy for DLRM-A's
 * dense layers on ZionEX, printing throughput relative to the FSDP
 * baseline and marking OOM plans — including why they fail.
 */

#include <iostream>

#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/strfmt.hh"
#include "util/table.hh"

using namespace madmax;

int
main()
{
    ModelDesc model = model_zoo::dlrmA();
    PerfModel madmax(hw_zoo::dlrmTrainingSystem());
    StrategyExplorer explorer(madmax);
    TaskSpec task = TaskSpec::preTraining();

    double baseline =
        explorer.baseline(model, task).throughput();

    AsciiTable table({"dense strategy", "emb strategy", "throughput",
                      "vs FSDP", "mem/device", "verdict"});
    for (const ExplorationResult &r :
         explorer.explore(model, task).results) {
        HierStrategy dense = r.plan.strategyFor(LayerClass::BaseDense);
        HierStrategy emb =
            r.plan.strategyFor(LayerClass::SparseEmbedding);
        if (r.report.valid) {
            table.addRow({dense.toString(), emb.toString(),
                          strfmt("%.2f MQPS",
                                 r.report.throughput() / 1e6),
                          strfmt("%.2fx",
                                 r.report.throughput() / baseline),
                          formatBytes(r.report.memory.total()), "ok"});
        } else {
            table.addRow({dense.toString(), emb.toString(), "-", "-",
                          formatBytes(r.report.memory.total()),
                          strfmt("OOM (>%s)",
                                 formatBytes(
                                     r.report.memory.usableCapacity)
                                     .c_str())});
        }
    }
    table.print(std::cout);
    return 0;
}
