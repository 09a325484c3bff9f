/**
 * @file
 * PerfReport checks shared by the suites that pin one evaluation path
 * to another: exact comparison, bit for bit
 * (tests/core/test_eval_context.cc, tests/engine/test_eval_engine.cc),
 * and the cheap internal invariants every report satisfies
 * (tests/core/test_splice_differential.cc).
 */

#ifndef MADMAX_TESTS_REPORT_CHECK_HH
#define MADMAX_TESTS_REPORT_CHECK_HH

#include <gtest/gtest.h>

#include "core/perf_model.hh"
#include "core/report.hh"

namespace madmax::testing
{

/** Exact equality on every PerfReport field, timeline included. */
inline void
expectBitIdentical(const PerfReport &a, const PerfReport &b)
{
    EXPECT_EQ(a.modelName, b.modelName);
    EXPECT_EQ(a.clusterName, b.clusterName);
    EXPECT_EQ(a.taskName, b.taskName);
    EXPECT_EQ(a.plan.toString(), b.plan.toString());
    EXPECT_EQ(a.plan.fsdpPrefetch, b.plan.fsdpPrefetch);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.memory.paramBytes, b.memory.paramBytes);
    EXPECT_EQ(a.memory.gradBytes, b.memory.gradBytes);
    EXPECT_EQ(a.memory.optimizerBytes, b.memory.optimizerBytes);
    EXPECT_EQ(a.memory.activationBytes, b.memory.activationBytes);
    EXPECT_EQ(a.memory.transientBytes, b.memory.transientBytes);
    EXPECT_EQ(a.memory.kvCacheBytes, b.memory.kvCacheBytes);
    EXPECT_EQ(a.memory.usableCapacity, b.memory.usableCapacity);
    EXPECT_EQ(a.iterationTime, b.iterationTime);
    EXPECT_EQ(a.serializedTime, b.serializedTime);
    EXPECT_EQ(a.computeTime, b.computeTime);
    EXPECT_EQ(a.commTime, b.commTime);
    EXPECT_EQ(a.exposedCommTime, b.exposedCommTime);
    EXPECT_EQ(a.globalBatchSize, b.globalBatchSize);
    EXPECT_EQ(a.contextLength, b.contextLength);
    EXPECT_EQ(a.serializedBreakdown, b.serializedBreakdown);
    EXPECT_EQ(a.exposedBreakdown, b.exposedBreakdown);

    ASSERT_EQ(a.timeline.events.size(), b.timeline.events.size());
    for (size_t i = 0; i < a.timeline.events.size(); ++i) {
        const ScheduledEvent &x = a.timeline.events[i];
        const ScheduledEvent &y = b.timeline.events[i];
        EXPECT_EQ(x.event.id, y.event.id);
        EXPECT_EQ(x.event.name, y.event.name) << "event " << i;
        EXPECT_EQ(x.event.stream, y.event.stream);
        EXPECT_EQ(x.event.category, y.event.category);
        EXPECT_EQ(x.event.duration, y.event.duration);
        EXPECT_EQ(x.event.deps, y.event.deps);
        EXPECT_EQ(x.event.blocking, y.event.blocking);
        EXPECT_EQ(x.event.layerIdx, y.event.layerIdx);
        EXPECT_EQ(x.event.backward, y.event.backward);
        EXPECT_EQ(x.event.algo, y.event.algo);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.finish, y.finish);
    }
    EXPECT_EQ(a.timeline.makespan, b.timeline.makespan);
}

/** Internal invariants of one report evaluated under @p options
 *  (reportInvariantViolation, which sanitizer builds also run inside
 *  every evaluation). */
inline void
expectReportInvariants(const PerfReport &r, const PerfModelOptions &options)
{
    EXPECT_EQ(reportInvariantViolation(r, options.ignoreMemory), "");
}

} // namespace madmax::testing

#endif // MADMAX_TESTS_REPORT_CHECK_HH
