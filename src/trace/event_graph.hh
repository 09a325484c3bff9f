/**
 * @file
 * Flat event-graph representation of a per-device iteration — the
 * hot-path counterpart of the TraceEvent DAG in trace_event.hh.
 *
 * A sweep evaluating thousands of plans spends most of its time
 * splicing and scheduling event graphs (spliceSegments does both in
 * one pass), so the hot structures are laid out flat:
 *
 *  - event ids are dense: node i's id is its index, so the splicer
 *    keeps start and finish times in plain vectors beside the graph;
 *  - every node's dependency list lives in one shared arena
 *    (EventGraph::deps) addressed by (depsBegin, depsCount) instead
 *    of a per-event heap-allocated vector;
 *  - nodes carry a *pointer* to their layer's name (stable storage
 *    owned by the model description) plus a one-byte NameSuffix; the
 *    label is only composed when a caller materializes TraceEvents
 *    for a retained Timeline (PerfModelOptions::keepTimeline).
 *
 * Input contract (same as the TraceEvent form): nodes are in issue
 * order per stream and every dependency index is smaller than the
 * depending node's index — guaranteed by construction in
 * spliceSegments, which is what lets it schedule each node as it
 * writes it. The iteration-end barrier is not a node; a retained
 * Timeline appends it after the materialized nodes.
 */

#ifndef MADMAX_TRACE_EVENT_GRAPH_HH
#define MADMAX_TRACE_EVENT_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_event.hh"

namespace madmax
{

/** One event in the flat graph; its id is its index in the graph. */
struct EventNode
{
    /** Base of the trace label, borrowed from stable storage (the
     *  layer's name in the ModelDesc). Never null once spliced. */
    const std::string *name = nullptr;

    StreamKind stream = StreamKind::Compute;
    EventCategory category = EventCategory::Other;
    CollAlgo algo = CollAlgo::None;
    bool blocking = true;
    bool backward = false;
    /** Appended to *name to form the label (sits in what would
     *  otherwise be padding before layerIdx). */
    NameSuffix suffix = NameSuffix::None;
    int layerIdx = -1;
    double duration = 0.0;

    uint32_t depsBegin = 0; ///< Offset into EventGraph::deps.
    uint32_t depsCount = 0;
};

/** A per-device iteration DAG in flat form. */
struct EventGraph
{
    std::vector<EventNode> nodes; ///< Issue order; id == index.
    std::vector<int32_t> deps;    ///< Shared dependency arena.

    const int32_t *depsOf(const EventNode &node) const
    {
        return deps.data() + node.depsBegin;
    }

    /**
     * Materialize node @p idx as a standalone TraceEvent (label
     * composed, dependency list copied out) — the slow, allocating form used
     * only when a Timeline must be retained.
     */
    TraceEvent materialize(size_t idx) const
    {
        const EventNode &node = nodes[idx];
        TraceEvent ev;
        ev.id = static_cast<int>(idx);
        ev.name = *node.name;
        ev.name += suffixText(node.suffix);
        ev.stream = node.stream;
        ev.category = node.category;
        ev.duration = node.duration;
        ev.deps.assign(depsOf(node), depsOf(node) + node.depsCount);
        ev.blocking = node.blocking;
        ev.layerIdx = node.layerIdx;
        ev.backward = node.backward;
        ev.algo = node.algo;
        return ev;
    }
};

} // namespace madmax

#endif // MADMAX_TRACE_EVENT_GRAPH_HH
