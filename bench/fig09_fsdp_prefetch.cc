/**
 * @file
 * Regenerates Fig. 9: the optimized FSDP implementation with
 * prefetching — earlier layers' weight AllGathers overlap with later
 * layers' gradient compute. Validated point: 98% measured vs 93%
 * MAD-Max-predicted communication overlap on a LLaMA pre-training
 * run.
 */

#include "paper.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "trace/chrome_trace.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig09(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 9: FSDP prefetching validation (LLaMA)",
                  "98% measured vs 93% predicted communication overlap "
                  "with prefetching enabled");

    PerfModelOptions opts;
    opts.keepTimeline = true; // The stream prefix reads the timeline.
    PerfModel madmax(hw_zoo::llmTrainingSystem(), opts);
    ModelDesc model = model_zoo::llama65b();

    AsciiTable table({"FSDP variant", "iteration", "comm overlap",
                      "exposed comm", "tokens/s"});
    PerfReport with, without;
    for (bool prefetch : {false, true}) {
        ParallelPlan plan = ParallelPlan::fsdpBaseline();
        plan.fsdpPrefetch = prefetch;
        PerfReport r =
            madmax.evaluate(model, TaskSpec::preTraining(), plan);
        (prefetch ? with : without) = r;
        table.addRow({prefetch ? "prefetch on (optimized)"
                                : "prefetch off",
                      formatTime(r.iterationTime),
                      formatPercent(r.overlapFraction()),
                      formatTime(r.exposedCommTime),
                      formatCount(r.tokensPerSecond())});
    }
    table.print(os);

    os << strfmt(
        "\nprefetch speedup: %.2fx; overlap %s -> %s "
        "(paper predicted 93%%, production measured 98%%)\n",
        with.throughput() / without.throughput(),
        formatPercent(without.overlapFraction()).c_str(),
        formatPercent(with.overlapFraction()).c_str());

    // Stream view of the first layers, showing AllGathers hidden
    // behind the preceding layer's compute.
    os << "\nstream prefix with prefetching "
          "('#' compute, '=' blocking comm):\n";
    Timeline prefix;
    for (const ScheduledEvent &se : with.timeline.events) {
        if (se.event.id < 24) {
            prefix.events.push_back(se);
            prefix.makespan = std::max(prefix.makespan, se.finish);
        }
    }
    os << asciiStreams(prefix, 76);
}
