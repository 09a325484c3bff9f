#include "core/overlap_simulator.hh"

#include <algorithm>

#include "core/interval_sweep.hh"

namespace madmax
{

void
OverlapSimulator::scheduleGraphInto(const EventGraph &graph,
                                    FlatSchedule &sched,
                                    SweepScratch &scratch) const
{
    const size_t n = graph.nodes.size();
    sched.start.resize(n);
    sched.finish.resize(n);
    sched.rawOverlap.assign(n, 0.0);
    sched.computeBusy = 0.0;
    sched.commBusy = 0.0;
    sched.exposedComm = 0.0;

    // Stream cursors: [0] compute, [1] blocking communication, [2] the
    // background channel non-blocking collectives (gradient AllReduce
    // / ReduceScatter) ride, as NCCL does, so they do not head-of-line
    // block later blocking collectives.
    double cursors[3] = {0.0, 0.0, 0.0};

    // The exposed-communication sweep's inputs are collected inline:
    // the compute stream's busy intervals (sequential stream, so they
    // come out disjoint and ascending — no sort needed) and the
    // nonzero comm intervals ("queries"), remembering each query's
    // channel so the ascending-lo visit order below comes from a
    // linear two-way merge instead of a sort (per channel, starts are
    // already non-decreasing).
    std::vector<Interval> &compute_busy = scratch.computeBusy;
    std::vector<Interval> &queries = scratch.queries;
    std::vector<size_t> &query_node = scratch.queryNode;
    std::vector<size_t> &main_chan = scratch.mainChan;
    std::vector<size_t> &back_chan = scratch.backChan;
    compute_busy.clear();
    queries.clear();
    query_node.clear();
    main_chan.clear();
    back_chan.clear();

    for (size_t i = 0; i < n; ++i) {
        const EventNode &node = graph.nodes[i];
        double ready;
        if (node.depsCount == static_cast<uint32_t>(i)) {
            // A node depending on every earlier node — the iteration-
            // end barrier (dependencies are distinct earlier nodes, so
            // depsCount == i can only mean deps == {0..i-1}). Its
            // ready time is the max finish so far, and finishes are
            // monotone per stream, so that is the max cursor — the
            // same double as the full dependency scan, without
            // walking a graph-sized list.
            ready = std::max(cursors[0],
                             std::max(cursors[1], cursors[2]));
        } else {
            const int32_t *deps = graph.depsOf(node);
            // max over the dependency finishes; max is exact, so the
            // two-accumulator unroll produces the same double as the
            // sequential loop.
            double r0 = 0.0;
            double r1 = 0.0;
            uint32_t d = 0;
            for (; d + 1 < node.depsCount; d += 2) {
                r0 = std::max(r0, sched.finish[deps[d]]);
                r1 = std::max(r1, sched.finish[deps[d + 1]]);
            }
            if (d < node.depsCount)
                r0 = std::max(r0, sched.finish[deps[d]]);
            ready = std::max(r0, r1);
        }

        const bool is_compute = node.stream == StreamKind::Compute;
        const size_t chan = is_compute
            ? 0
            : (backgroundChannel_ && !node.blocking ? 2 : 1);
        const double start = std::max(cursors[chan], ready);
        const double finish = start + node.duration;
        cursors[chan] = finish;
        sched.start[i] = start;
        sched.finish[i] = finish;

        if (is_compute) {
            sched.computeBusy += node.duration;
            if (finish > start)
                compute_busy.push_back(Interval{start, finish});
        } else {
            sched.commBusy += node.duration;
            if (finish > start) {
                (chan == 2 ? back_chan : main_chan)
                    .push_back(queries.size());
                queries.push_back(Interval{start, finish});
                query_node.push_back(i);
            }
        }
    }
    // Finishes are monotone per stream, so each cursor ends at its
    // stream's max finish and the makespan is the max cursor — the
    // same double the old per-node max produced.
    sched.makespan =
        std::max(cursors[0], std::max(cursors[1], cursors[2]));

    // One accounting: each comm event's coverage under the merged
    // compute intervals feeds both the aggregate and, through
    // rawOverlap, the per-category breakdown. The sequential compute
    // stream's intervals are already ascending, so the merge needs no
    // sort.
    //
    // The visit order is the merge of the two channels' (already
    // ascending) query sequences; ties break toward the smaller query
    // index, which keeps the visit order deterministic (and
    // coveredLengthsInto's per-query sums only need ascending lo in
    // the first place).
    mergeSortedIntervalsInto(compute_busy, scratch.merged);
    std::vector<size_t> &order = scratch.order;
    order.clear();
    {
        size_t a = 0;
        size_t b = 0;
        while (a < main_chan.size() && b < back_chan.size()) {
            const size_t qa = main_chan[a];
            const size_t qb = back_chan[b];
            if (queries[qa].lo < queries[qb].lo ||
                (queries[qa].lo == queries[qb].lo && qa < qb)) {
                order.push_back(qa);
                ++a;
            } else {
                order.push_back(qb);
                ++b;
            }
        }
        order.insert(order.end(), main_chan.begin() + a,
                     main_chan.end());
        order.insert(order.end(), back_chan.begin() + b,
                     back_chan.end());
    }
    coveredLengthsInto(scratch.merged, queries, scratch.order,
                       scratch.mergedCov);

    for (size_t q = 0; q < queries.size(); ++q) {
        sched.exposedComm +=
            (queries[q].hi - queries[q].lo) - scratch.mergedCov[q];
        sched.rawOverlap[query_node[q]] = scratch.mergedCov[q];
    }
}

} // namespace madmax
