/**
 * @file
 * Execution-trace data structures (§IV-A): "a detailed record
 * capturing the sequence and duration of both compute and
 * communication events (i.e., streams) on each device."
 *
 * A per-device iteration is a DAG of TraceEvents partitioned into a
 * compute stream and a communication stream. Events within a stream
 * execute in issue order; cross-stream edges come from data
 * dependencies. The stream builder (core/stream_builder) schedules
 * each event as it splices the DAG and, when the Timeline is
 * retained, writes each event with its start/finish times into it.
 * The overlap accounting lives in the PerfReport, not here.
 */

#ifndef MADMAX_TRACE_TRACE_EVENT_HH
#define MADMAX_TRACE_TRACE_EVENT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace madmax
{

/** Which per-device stream an event occupies. */
enum class StreamKind
{
    Compute,
    Communication,
};

/** Cost category for the Fig. 20-style execution breakdowns. */
enum class EventCategory
{
    EmbeddingLookup,
    Gemm,            ///< Dense compute (MLP / attention / FFN).
    AllReduce,
    AllGather,
    ReduceScatter,
    All2All,
    Memcpy,          ///< Host-device transfers (fleet model only).
    Other,
};

/**
 * Which algorithm the collective cost model chose for a communication
 * event. Every priced collective is annotated, and keepTimeline
 * traces / Chrome traces surface the choice per comm op.
 */
enum class CollAlgo
{
    None,          ///< No algorithm annotation (compute, barriers).
    Ring,          ///< Bandwidth-optimal ring within one tier.
    Tree,          ///< Pipelined binary tree (latency-optimal).
    Hierarchical,  ///< Multi-tier decomposition across fabric levels.
    PointToPoint,  ///< Send/Recv pairs (All2All), slowest-link bound.
};

/**
 * The fixed tail of a layer event's trace label. Every event a layer
 * contributes is named `<layer name><suffix>` — "Attn_3" (forward
 * compute), "Attn_3'" (backward compute), "Attn_3_w_AG" (FSDP
 * parameter gather) — so template events (core/segment_template.hh)
 * carry this one-byte id instead of a composed string.
 */
enum class NameSuffix : uint8_t
{
    None,             ///< "" (forward compute, barriers).
    Backward,         ///< "'" (backward compute).
    GradAllReduce,    ///< "_g_AR" (DDP weight gradients).
    ParamGather,      ///< "_w_AG" (FSDP forward parameter gather).
    ParamRegather,    ///< "_w_AG'" (FSDP backward re-gather).
    GradReduceScatter, ///< "_g_RS" (FSDP weight gradients).
    ActAllReduce,     ///< "_a_AR" (TP forward partial sums).
    ActGradAllReduce, ///< "_da_AR" (TP input gradients).
    Dispatch,         ///< "_disp_A2A" (MoE forward dispatch).
    Combine,          ///< "_comb_A2A" (MoE forward combine).
    CombineGrad,      ///< "_dcomb_A2A" (MoE backward combine).
    DispatchGrad,     ///< "_ddisp_A2A" (MoE backward dispatch).
    PooledA2A,        ///< "_A2A" (embedding pooled lookups).
    PooledGradA2A,    ///< "_g_A2A" (embedding gradients).
};

std::string toString(StreamKind kind);
std::string toString(EventCategory cat);
std::string toString(CollAlgo algo);

/** The text @p suffix appends to a layer name (static storage). */
const char *suffixText(NameSuffix suffix);

/** One block on a stream. */
struct TraceEvent
{
    int id = -1;
    std::string name;
    StreamKind stream = StreamKind::Compute;
    EventCategory category = EventCategory::Other;
    double duration = 0.0;     ///< Seconds.
    std::vector<int> deps;     ///< Event ids that must finish first.

    /**
     * Non-blocking communication (e.g. DDP gradient AllReduce) is off
     * every compute event's dependency list; only the iteration-end
     * barrier waits for it.
     */
    bool blocking = true;

    int layerIdx = -1;         ///< Originating layer (-1 for barriers).
    bool backward = false;     ///< Phase tag for reporting.

    /** Collective algorithm the cost model chose (None for compute
     *  events). */
    CollAlgo algo = CollAlgo::None;
};

/** An event with its scheduled interval. */
struct ScheduledEvent
{
    TraceEvent event;
    double start = 0.0;
    double finish = 0.0;
};

/**
 * A fully scheduled per-device iteration: every event with start and
 * finish times, in issue order. The busy, exposed and overlap figures
 * are the PerfReport's.
 */
struct Timeline
{
    std::vector<ScheduledEvent> events;
    double makespan = 0.0; ///< End-to-end iteration seconds.
};

} // namespace madmax

#endif // MADMAX_TRACE_TRACE_EVENT_HH
