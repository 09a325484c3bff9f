#include "reference/reference_builder.hh"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/eval_context.hh"
#include "parallel/comm_planner.hh"
#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{
namespace reference
{

namespace
{

/** One priced collective of one layer. */
struct PricedOp
{
    CommOp op;
    CollectiveEstimate est;
};

/** One event list's schedule, indexed by list position. */
struct Schedule
{
    std::vector<double> start;
    std::vector<double> finish;
    /** Comm events: length covered by the merged compute intervals. */
    std::vector<double> covered;
    double makespan = 0.0;
    double computeBusy = 0.0;
    double commBusy = 0.0;
    double exposedComm = 0.0;
};

/**
 * Schedule @p events in list order, validating their ids. Each event
 * starts once its channel's previous event and all its dependencies
 * have finished: compute on one in-order stream, blocking collectives
 * on another, non-blocking ones on a background channel when
 * @p backgroundChannel (else with the blocking ones). A comm event's
 * exposed time is its length minus its overlap with the merged
 * compute-busy intervals, summed in list order.
 */
Schedule
scheduleEvents(const std::vector<TraceEvent> &events,
               bool backgroundChannel)
{
    const size_t n = events.size();
    Schedule sch;
    sch.start.resize(n);
    sch.finish.resize(n);
    sch.covered.assign(n, 0.0);
    std::unordered_map<int, size_t> index_by_id;
    double cursors[3] = {0.0, 0.0, 0.0};
    for (size_t i = 0; i < n; ++i) {
        const TraceEvent &ev = events[i];
        if (index_by_id.count(ev.id))
            panic(strfmt("reference::schedule: duplicate event id %d",
                         ev.id));
        double ready = 0.0;
        for (int dep : ev.deps) {
            auto it = index_by_id.find(dep);
            if (it == index_by_id.end()) {
                panic(strfmt("reference::schedule: event %d depends on "
                             "unscheduled event %d",
                             ev.id, dep));
            }
            ready = std::max(ready, sch.finish[it->second]);
        }
        index_by_id.emplace(ev.id, i);

        const bool compute = ev.stream == StreamKind::Compute;
        const int chan =
            compute ? 0 : (backgroundChannel && !ev.blocking ? 2 : 1);
        sch.start[i] = std::max(cursors[chan], ready);
        sch.finish[i] = sch.start[i] + ev.duration;
        cursors[chan] = sch.finish[i];
        (compute ? sch.computeBusy : sch.commBusy) += ev.duration;
        sch.makespan = std::max(sch.makespan, sch.finish[i]);
    }

    // The compute stream runs in order, so its busy intervals come out
    // ascending; touching ones merge.
    std::vector<std::pair<double, double>> cover;
    for (size_t i = 0; i < n; ++i) {
        if (events[i].stream != StreamKind::Compute ||
            sch.finish[i] <= sch.start[i])
            continue;
        if (!cover.empty() && sch.start[i] <= cover.back().second)
            cover.back().second =
                std::max(cover.back().second, sch.finish[i]);
        else
            cover.emplace_back(sch.start[i], sch.finish[i]);
    }
    for (size_t i = 0; i < n; ++i) {
        const double lo = sch.start[i];
        const double hi = sch.finish[i];
        if (events[i].stream != StreamKind::Communication || hi <= lo)
            continue;
        auto j = std::partition_point(
            cover.begin(), cover.end(),
            [lo](const std::pair<double, double> &c) {
                return c.second <= lo;
            });
        for (; j != cover.end() && j->first < hi; ++j) {
            const double a = std::max(lo, j->first);
            const double b = std::min(hi, j->second);
            if (b > a)
                sch.covered[i] += b - a;
        }
        sch.exposedComm += (hi - lo) - sch.covered[i];
    }
    return sch;
}

Timeline
toTimeline(const std::vector<TraceEvent> &events, const Schedule &sch)
{
    Timeline tl;
    for (size_t i = 0; i < events.size(); ++i) {
        tl.events.push_back(
            ScheduledEvent{events[i], sch.start[i], sch.finish[i]});
    }
    tl.makespan = sch.makespan;
    return tl;
}

} // namespace

std::vector<TraceEvent>
buildEvents(const ModelDesc &desc, const TaskSpec &task,
            const ParallelPlan &plan, const ClusterSpec &cluster,
            const LayerProcessor &processor,
            const TopologyCollectiveModel &collectives)
{
    const ModelGraph &graph = desc.graph;
    const int num_layers = graph.numLayers();
    const size_t n = static_cast<size_t>(num_layers);

    CommPlanner planner(desc, task, plan, cluster);
    std::vector<std::vector<PricedOp>> ops(n);
    std::vector<std::vector<int>> consumers(n);
    for (int i = 0; i < num_layers; ++i) {
        for (CommOp &op : planner.planLayer(i)) {
            CollectiveEstimate est =
                collectives.estimate(op.kind, op.scope, op.bytes);
            if (est.seconds > 0.0)
                ops[static_cast<size_t>(i)].push_back({std::move(op), est});
        }
        for (int d : graph.deps(i)) {
            std::vector<int> &c = consumers[static_cast<size_t>(d)];
            if (c.empty() || c.back() != i)
                c.push_back(i);
        }
    }

    std::vector<TraceEvent> events;
    std::vector<int> fwd_out(n, -1);
    std::vector<int> bwd_out(n, -1);
    std::vector<int> compute_ids;
    auto add = [&](std::string name, StreamKind stream,
                   EventCategory category, double duration, bool blocking,
                   CollAlgo algo, bool backward, int layer,
                   std::vector<int> deps) {
        TraceEvent ev;
        ev.id = static_cast<int>(events.size());
        ev.name = std::move(name);
        ev.stream = stream;
        ev.category = category;
        ev.duration = duration;
        ev.deps = std::move(deps);
        ev.blocking = blocking;
        ev.layerIdx = layer;
        ev.backward = backward;
        ev.algo = algo;
        events.push_back(std::move(ev));
        return events.back().id;
    };

    auto emit = [&](int i, bool backward) {
        const size_t s = static_cast<size_t>(i);
        const Layer &layer = graph.layer(i);
        const Phase phase = backward ? Phase::Backward : Phase::Forward;

        // Forward data: the producers' visible outputs.
        auto data_deps = [&] {
            std::vector<int> deps;
            for (int d : graph.deps(i))
                deps.push_back(fwd_out[static_cast<size_t>(d)]);
            return deps;
        };
        // Incoming gradients: the consumers' backward outputs, or the
        // layer's own forward output when no consumer has one.
        auto grad_deps = [&] {
            std::vector<int> deps;
            for (int c : consumers[s]) {
                if (bwd_out[static_cast<size_t>(c)] >= 0)
                    deps.push_back(bwd_out[static_cast<size_t>(c)]);
            }
            if (deps.empty())
                deps.push_back(fwd_out[s]);
            return deps;
        };
        // Parameter gathers are issued when the previous compute event
        // ends — one compute earlier with prefetching (Fig. 9).
        auto gather_deps = [&] {
            const size_t back = plan.fsdpPrefetch ? 2 : 1;
            std::vector<int> deps;
            if (compute_ids.size() >= back)
                deps.push_back(compute_ids[compute_ids.size() - back]);
            return deps;
        };

        std::vector<int> pre;
        for (const PricedOp &p : ops[s]) {
            if (p.op.phase != phase || p.op.position != CommPosition::Pre)
                continue;
            std::vector<int> deps = p.op.kind == Collective::AllGather
                ? gather_deps()
                : (backward ? grad_deps() : data_deps());
            pre.push_back(add(layer.name() + suffixText(p.op.suffix),
                              StreamKind::Communication,
                              commCategoryOf(p.op.kind), p.est.seconds,
                              p.op.blocking, p.est.algo, backward, i,
                              std::move(deps)));
        }

        std::vector<int> deps;
        if (backward) {
            deps = grad_deps();
            deps.insert(deps.end(), pre.begin(), pre.end());
        } else {
            deps = pre;
            for (int d : data_deps())
                deps.push_back(d);
        }
        int out = add(backward ? layer.name() + "'" : layer.name(),
                      StreamKind::Compute, processor.categoryOf(layer),
                      backward ? processor.backwardTime(layer, task)
                               : processor.forwardTime(layer, task),
                      true, CollAlgo::None, backward, i, std::move(deps));
        compute_ids.push_back(out);

        // Post collectives chain after the compute; blocking ones
        // become the layer's visible output.
        for (const PricedOp &p : ops[s]) {
            if (p.op.phase != phase || p.op.position != CommPosition::Post)
                continue;
            int id = add(layer.name() + suffixText(p.op.suffix),
                         StreamKind::Communication,
                         commCategoryOf(p.op.kind), p.est.seconds,
                         p.op.blocking, p.est.algo, backward, i, {out});
            if (p.op.blocking)
                out = id;
        }
        (backward ? bwd_out : fwd_out)[s] = out;
    };

    for (int i = 0; i < num_layers; ++i)
        emit(i, false);
    const bool backward = task.needsBackward();
    if (backward) {
        for (int i = num_layers - 1; i >= 0; --i)
            emit(i, true);
    }

    // The iteration-end barrier waits for everything, including
    // non-blocking gradient collectives.
    std::vector<int> all(events.size());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<int>(i);
    add("iter_end", StreamKind::Compute, EventCategory::Other, 0.0, true,
        CollAlgo::None, backward, -1, std::move(all));
    return events;
}

ScheduleResult
schedule(const std::vector<TraceEvent> &events, bool backgroundChannel)
{
    const Schedule sch = scheduleEvents(events, backgroundChannel);
    return ScheduleResult{toTimeline(events, sch), sch.computeBusy,
                          sch.commBusy, sch.exposedComm};
}

PerfReport
evaluate(const PerfModel &model, const ModelDesc &desc,
         const TaskSpec &task, const ParallelPlan &plan)
{
    const PerfModelOptions &opts = model.options();
    PerfReport report = model.verdict(desc, task, plan);
    if (!report.memory.fits() && !opts.ignoreMemory)
        return report;

    LayerProcessor processor(model.cluster(), desc, opts.smModel);
    const TopologyCollectiveModel collectives(
        model.cluster(), CollectiveLatency{}, opts.allReduceAlgorithm);
    const std::vector<TraceEvent> events = buildEvents(
        desc, task, plan, model.cluster(), processor, collectives);
    const Schedule sch = scheduleEvents(events, opts.backgroundCommChannel);

    report.iterationTime = sch.makespan;
    report.serializedTime = sch.computeBusy + sch.commBusy;
    report.computeTime = sch.computeBusy;
    report.commTime = sch.commBusy;
    report.exposedCommTime = sch.exposedComm;
    std::map<EventCategory, double> serialized, exposed;
    for (size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &ev = events[i];
        if (ev.duration > 0.0)
            serialized[ev.category] += ev.duration;
        if (ev.stream == StreamKind::Communication &&
            sch.finish[i] > sch.start[i]) {
            exposed[ev.category] +=
                (sch.finish[i] - sch.start[i]) - sch.covered[i];
        }
    }
    report.serializedBreakdown.assign(serialized.begin(), serialized.end());
    report.exposedBreakdown.assign(exposed.begin(), exposed.end());
    report.timeline = toTimeline(events, sch);
    return report;
}

} // namespace reference
} // namespace madmax
