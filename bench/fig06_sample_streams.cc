/**
 * @file
 * Regenerates Fig. 6: sample generated GPU compute and communication
 * streams for the DLRM-Transformer example, with exposed
 * communication segments labeled.
 */

#include "paper.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "trace/chrome_trace.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig06(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 6: generated compute/communication streams",
                  "EMB_c_A2A is blocking (Transformer_Attn_0 needs its "
                  "result) and shows as exposed communication");

    ModelDesc model = model_zoo::dlrmATransformer();
    PerfModelOptions opts;
    opts.keepTimeline = true; // The stream view reads the timeline.
    PerfModel madmax(hw_zoo::dlrmTrainingSystem(), opts);
    ParallelPlan plan;
    plan.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    plan.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    plan.set(LayerClass::Transformer, HierStrategy{Strategy::DDP});

    PerfReport r =
        madmax.evaluate(model, TaskSpec::preTraining(), plan);
    os << r.summary() << "\n";
    os << "streams ('#' compute, '=' blocking comm, "
          "'-' non-blocking comm):\n\n";
    os << asciiStreams(r.timeline, 76) << "\n";

    // Enumerate the exposed communication segments the figure labels.
    os << "exposed communication segments:\n";
    AsciiTable table({"event", "start", "duration", "waiting compute"});
    for (const ScheduledEvent &se : r.timeline.events) {
        if (se.event.stream != StreamKind::Communication ||
            !se.event.blocking || se.event.duration <= 0.0) {
            continue;
        }
        // A blocking collective is exposed when the compute stream
        // has nothing scheduled over its interval.
        bool covered = false;
        for (const ScheduledEvent &other : r.timeline.events) {
            if (other.event.stream == StreamKind::Compute &&
                other.finish > se.start && other.start < se.finish &&
                other.event.duration > 0.0) {
                covered = true;
                break;
            }
        }
        if (!covered) {
            // The first dependent compute event.
            std::string waiter = "(iteration end)";
            for (const ScheduledEvent &other : r.timeline.events) {
                bool depends = false;
                for (int d : other.event.deps)
                    depends |= d == se.event.id;
                if (depends &&
                    other.event.stream == StreamKind::Compute) {
                    waiter = other.event.name;
                    break;
                }
            }
            table.addRow({se.event.name, formatTime(se.start),
                          formatTime(se.event.duration), waiter});
        }
    }
    table.print(os);
}
