/**
 * Overlap-scheduling semantics (§IV-C) on hand-built event lists,
 * scheduled by the reference scheduler (tests/reference), which
 * validates arbitrary ids. The splice differential pins production
 * scheduling to the same scheduler.
 */

#include <gtest/gtest.h>

#include "reference/reference_builder.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

TraceEvent
ev(int id, StreamKind stream, double dur, std::vector<int> deps = {},
   bool blocking = true)
{
    TraceEvent e;
    e.id = id;
    e.name = "e" + std::to_string(id);
    e.stream = stream;
    e.duration = dur;
    e.deps = std::move(deps);
    e.blocking = blocking;
    return e;
}

constexpr StreamKind C = StreamKind::Compute;
constexpr StreamKind N = StreamKind::Communication;

} // namespace

TEST(OverlapSimulator, SequentialComputeChain)
{
    const auto r = reference::schedule(
        {ev(0, C, 1.0), ev(1, C, 2.0, {0}), ev(2, C, 3.0, {1})});
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 6.0);
    EXPECT_DOUBLE_EQ(r.computeBusy, 6.0);
    EXPECT_DOUBLE_EQ(r.commBusy, 0.0);
    EXPECT_DOUBLE_EQ(r.exposedComm, 0.0);
}

TEST(OverlapSimulator, StreamOrderSerializesWithoutDeps)
{
    // Two independent compute events still execute in issue order on
    // the single compute stream.
    const auto r = reference::schedule({ev(0, C, 1.0), ev(1, C, 1.0)});
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 2.0);
    EXPECT_DOUBLE_EQ(r.timeline.events[1].start, 1.0);
}

TEST(OverlapSimulator, IndependentCommOverlapsCompute)
{
    const auto r = reference::schedule({ev(0, C, 4.0), ev(1, N, 3.0)});
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 4.0);
    EXPECT_DOUBLE_EQ(r.commBusy, 3.0);
    // Fully hidden behind the concurrent compute.
    EXPECT_DOUBLE_EQ(r.exposedComm, 0.0);
    EXPECT_DOUBLE_EQ((r.commBusy - r.exposedComm) / r.commBusy, 1.0);
}

TEST(OverlapSimulator, BlockingCommGatesDependentCompute)
{
    // EMB -> A2A -> MLP: the Fig. 6 exposed-communication pattern.
    const auto r = reference::schedule({
        ev(0, C, 2.0),           // EMB lookup.
        ev(1, N, 3.0, {0}),      // Blocking A2A.
        ev(2, C, 1.0, {1}),      // MLP needs the A2A result.
    });
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 6.0);
    EXPECT_DOUBLE_EQ(r.timeline.events[2].start, 5.0);
    // The A2A runs while compute idles: fully exposed.
    EXPECT_DOUBLE_EQ(r.exposedComm, 3.0);
}

TEST(OverlapSimulator, PartialOverlapAccounting)
{
    const auto r = reference::schedule({
        ev(0, C, 2.0),
        ev(1, N, 4.0, {0}),      // Starts at 2, ends at 6.
        ev(2, C, 2.0, {0}),      // Runs 2..4, overlapping half the comm.
        ev(3, C, 1.0, {1, 2}),   // Needs the comm: starts at 6.
    });
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 7.0);
    EXPECT_DOUBLE_EQ(r.exposedComm, 2.0); // 4..6 uncovered.
    EXPECT_DOUBLE_EQ(r.commBusy - r.exposedComm, 2.0);
}

TEST(OverlapSimulator, NonBlockingCommRidesBackgroundChannel)
{
    // A long non-blocking gradient AllReduce must not head-of-line
    // block a later blocking collective.
    const auto r = reference::schedule({
        ev(0, C, 1.0),
        ev(1, N, 10.0, {0}, false), // Gradient AR in background.
        ev(2, N, 2.0, {0}, true),   // Blocking A2A issued after it.
        ev(3, C, 1.0, {2}),
    });
    const ScheduledEvent &a2a = r.timeline.events[2];
    EXPECT_DOUBLE_EQ(a2a.start, 1.0);  // Not stuck behind the AR.
    EXPECT_DOUBLE_EQ(r.timeline.events[3].start, 3.0);
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 11.0); // AR finishes at 11.
}

TEST(OverlapSimulator, BlockingCommQueuesInOrder)
{
    const auto r = reference::schedule({
        ev(0, N, 2.0),
        ev(1, N, 2.0), // Same stream: starts at 2 even with no dep.
    });
    EXPECT_DOUBLE_EQ(r.timeline.events[1].start, 2.0);
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 4.0);
}

TEST(OverlapSimulator, ZeroDurationBarrier)
{
    const auto r = reference::schedule({
        ev(0, C, 1.0),
        ev(1, N, 5.0, {}, false),
        ev(2, C, 0.0, {0, 1}), // Barrier waits for the background AR.
    });
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 5.0);
    EXPECT_DOUBLE_EQ(r.timeline.events[2].start, 5.0);
}

TEST(OverlapSimulator, DuplicateIdsPanic)
{
    EXPECT_THROW(reference::schedule({ev(0, C, 1.0), ev(0, C, 1.0)}),
                 InternalError);
}

TEST(OverlapSimulator, ForwardDependencyPanics)
{
    EXPECT_THROW(reference::schedule({ev(0, C, 1.0, {5})}),
                 InternalError);
}

TEST(OverlapSimulator, EmptyScheduleIsEmptyTimeline)
{
    const auto r = reference::schedule({});
    EXPECT_DOUBLE_EQ(r.timeline.makespan, 0.0);
    EXPECT_TRUE(r.timeline.events.empty());
}

// Invariant sweep: for random-ish DAGs, makespan is bounded by
// serialized time below and by the critical path above, and exposed
// comm never exceeds total comm.
class OverlapInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(OverlapInvariants, BoundsHold)
{
    int seed = GetParam();
    // Deterministic pseudo-random DAG from the seed.
    std::vector<TraceEvent> events;
    unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1u;
    auto next = [&state]() {
        state = state * 1664525u + 1013904223u;
        return state;
    };
    for (int i = 0; i < 40; ++i) {
        StreamKind s = (next() % 2 == 0) ? C : N;
        double dur = 0.5 + static_cast<double>(next() % 100) / 25.0;
        std::vector<int> deps;
        if (i > 0 && next() % 3 != 0)
            deps.push_back(
                static_cast<int>(next() % static_cast<unsigned>(i)));
        bool blocking = next() % 4 != 0;
        events.push_back(ev(i, s, dur, std::move(deps), blocking));
    }

    const auto r = reference::schedule(events);
    EXPECT_LE(r.timeline.makespan, r.computeBusy + r.commBusy + 1e-9);
    EXPECT_GE(r.timeline.makespan, r.computeBusy - 1e-9);
    EXPECT_GE(r.exposedComm, -1e-9);
    EXPECT_LE(r.exposedComm, r.commBusy + 1e-9);
    // Every event starts after its deps.
    for (const ScheduledEvent &se : r.timeline.events) {
        for (int dep : se.event.deps) {
            const ScheduledEvent &d =
                r.timeline.events[static_cast<size_t>(dep)];
            EXPECT_GE(se.start, d.finish - 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapInvariants,
                         ::testing::Range(1, 21));

} // namespace madmax
