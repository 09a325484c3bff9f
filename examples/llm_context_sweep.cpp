/**
 * @file
 * LLM context-length study (the Fig. 15 workflow).
 *
 * Holds the LLaMA2-70B architecture fixed while doubling context
 * length, and shows how the benefit of tuning parallelization
 * strategies shrinks as attention-driven activation volumes grow —
 * Insight 6's "beyond parallelization" conclusion.
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
    PerfModel madmax(hw_zoo::llmTrainingSystem());
    StrategyExplorer explorer(madmax);
    TaskSpec task = TaskSpec::preTraining();

    AsciiTable table({"context", "FSDP tokens/s", "best tokens/s",
                      "gain", "best plan (transformer)"});
    for (long ctx : {2048L, 4096L, 8192L, 16384L}) {
        ModelDesc model = model_zoo::llama2WithContext(ctx);
        double fsdp = explorer.baseline(model, task).tokensPerSecond();
        ExplorationResult best = explorer.best(model, task);
        table.addRow(
            {strfmt("%ldK", ctx / 1024),
             formatCount(fsdp),
             formatCount(best.report.tokensPerSecond()),
             strfmt("%.2fx", best.report.tokensPerSecond() / fsdp),
             best.plan.strategyFor(LayerClass::Transformer).toString()});
    }
    table.print(std::cout);
    std::cout << "\nDiminishing strategy gains with longer contexts "
                 "motivate changes beyond parallelization (Insight 6).\n";
    return 0;
}
