/**
 * @file
 * Two-stream list scheduler (§IV-C "Computation-Communication
 * Overlap"): events execute in issue order within their stream,
 * starting as soon as both the stream cursor and all data
 * dependencies allow ("GPU kernels are launched whenever data
 * dependencies are resolved"). Events on different streams with no
 * dependency between them overlap freely.
 *
 * Dense event ids index flat start/finish vectors (no hash map),
 * dependencies come from the graph's shared arena, and
 * exposed-communication accounting is a linear interval sweep
 * (core/interval_sweep.hh) instead of an O(comm x compute) double
 * loop. The per-event overlaps are returned so the per-category
 * exposed breakdown reuses this sweep.
 */

#ifndef MADMAX_CORE_OVERLAP_SIMULATOR_HH
#define MADMAX_CORE_OVERLAP_SIMULATOR_HH

#include <vector>

#include "core/interval_sweep.hh"
#include "trace/event_graph.hh"
#include "trace/trace_event.hh"

namespace madmax
{

/**
 * A scheduled flat graph: per-node start/finish times plus the
 * aggregate accounting, with no per-event allocation or string copy.
 */
struct FlatSchedule
{
    std::vector<double> start;  ///< Indexed by node id.
    std::vector<double> finish; ///< Indexed by node id.

    /**
     * Per communication node: seconds of its interval covered by the
     * merged compute-busy intervals. exposedComm below and the
     * per-category exposed breakdown both subtract exactly this from
     * the node's length — one exposed-comm accounting. 0 for compute
     * nodes and zero-length events.
     */
    std::vector<double> rawOverlap;

    double makespan = 0.0;
    double computeBusy = 0.0;
    double commBusy = 0.0;
    double exposedComm = 0.0;
};

/**
 * Reusable working buffers for the exposed-communication sweep.
 * Callers that schedule many graphs of similar size (the evaluation
 * loop's per-thread buffers) keep one of these alive so the
 * per-schedule interval/order/coverage vectors stop being fresh
 * allocations.
 */
struct SweepScratch
{
    std::vector<Interval> computeBusy; ///< Raw compute-busy intervals.
    std::vector<Interval> merged;      ///< Same, merged (the cover).
    std::vector<Interval> queries;     ///< Nonzero comm intervals.
    std::vector<size_t> queryNode;     ///< queries[i] -> node id.
    std::vector<size_t> order;         ///< Ascending-lo query order.
    std::vector<size_t> mainChan;      ///< Main-channel query indices.
    std::vector<size_t> backChan;      ///< Background query indices.
    std::vector<double> mergedCov;     ///< Coverage under merged.
};

/**
 * Schedules a per-device event DAG onto a compute stream and a
 * communication stream.
 *
 * Input contract: events are in issue order (each stream executes its
 * events in the order they appear), every dependency id refers to an
 * earlier event, a node's dependency list has no duplicates, and ids
 * are unique. Violations are internal errors. (The no-duplicates rule
 * lets the scheduler recognize a node with as many dependencies as
 * there are earlier nodes — the iteration-end barrier — and resolve
 * its ready time from the stream cursors instead of scanning a
 * graph-sized list; both builders satisfy it by construction.)
 */
class OverlapSimulator
{
  public:
    /**
     * @param background_channel When true (default), non-blocking
     *        collectives ride a separate channel, as NCCL schedules
     *        gradient reductions; when false every collective shares
     *        one in-order stream (the naive model — kept for the
     *        ablation bench).
     */
    explicit OverlapSimulator(bool background_channel = true)
        : backgroundChannel_(background_channel)
    {}

    /**
     * Schedule @p graph into caller-owned result and scratch buffers.
     * Node indices are trusted to satisfy the issue-order contract
     * (spliceSegments guarantees it by construction). @p sched is
     * fully overwritten (stale contents from a previous,
     * differently-sized graph are fine); scratch vectors are cleared
     * and refilled.
     */
    void scheduleGraphInto(const EventGraph &graph, FlatSchedule &sched,
                           SweepScratch &scratch) const;

  private:
    bool backgroundChannel_;
};

} // namespace madmax

#endif // MADMAX_CORE_OVERLAP_SIMULATOR_HH
