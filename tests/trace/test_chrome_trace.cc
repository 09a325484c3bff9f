#include <gtest/gtest.h>

#include <sstream>

#include "config/json.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "trace/chrome_trace.hh"

namespace madmax
{

namespace
{

Timeline
tinyTimeline()
{
    Timeline tl;
    TraceEvent compute;
    compute.id = 0;
    compute.name = "EMB";
    compute.stream = StreamKind::Compute;
    compute.category = EventCategory::EmbeddingLookup;
    compute.duration = 2e-3;
    tl.events.push_back(ScheduledEvent{compute, 0.0, 2e-3});

    TraceEvent comm;
    comm.id = 1;
    comm.name = "EMB_A2A \"x\"";
    comm.stream = StreamKind::Communication;
    comm.category = EventCategory::All2All;
    comm.duration = 3e-3;
    comm.blocking = true;
    comm.deps = {0};
    tl.events.push_back(ScheduledEvent{comm, 2e-3, 5e-3});

    tl.makespan = 5e-3;
    return tl;
}

JsonValue
traceDocument(const Timeline &timeline)
{
    std::ostringstream os;
    writeChromeTrace(timeline, os);
    return JsonValue::parse(os.str());
}

} // namespace

TEST(ChromeTrace, ProducesValidJson)
{
    // Must parse with our own JSON reader.
    JsonValue doc = traceDocument(tinyTimeline());
    ASSERT_TRUE(doc.has("traceEvents"));
    const auto &events = doc.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);

    const JsonValue &first = events[0];
    EXPECT_EQ(first.at("name").asString(), "EMB");
    EXPECT_EQ(first.at("ph").asString(), "X");
    EXPECT_EQ(first.at("tid").asLong(), 0);      // Compute lane.
    EXPECT_DOUBLE_EQ(first.at("ts").asDouble(), 0.0);
    EXPECT_NEAR(first.at("dur").asDouble(), 2000.0, 1e-6); // us.

    const JsonValue &second = events[1];
    EXPECT_EQ(second.at("tid").asLong(), 1);     // Comm lane.
    EXPECT_EQ(second.at("name").asString(), "EMB_A2A \"x\"");
    EXPECT_EQ(second.at("args").at("blocking").asBool(), true);
}

TEST(ChromeTrace, SkipsZeroDurationEvents)
{
    Timeline tl = tinyTimeline();
    TraceEvent barrier;
    barrier.id = 2;
    barrier.name = "iter_end";
    barrier.duration = 0.0;
    tl.events.push_back(ScheduledEvent{barrier, 5e-3, 5e-3});

    JsonValue doc = traceDocument(tl);
    EXPECT_EQ(doc.at("traceEvents").size(), 2u);
}

// A flat cluster is priced on its flat-equivalent tier stack, so its
// collectives carry the chosen algorithm just like a topology
// cluster's: every communication event is annotated, no compute event
// is, and the Chrome trace emits "algo" on exactly the collectives.
TEST(ChromeTrace, FlatClusterAnnotatesEveryCollective)
{
    PerfModelOptions opts;
    opts.keepTimeline = true;
    PerfModel model(hw_zoo::dlrmTrainingSystem(), opts);
    ParallelPlan plan;
    plan.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});
    PerfReport r =
        model.evaluate(model_zoo::dlrmA(), TaskSpec::preTraining(), plan);
    ASSERT_TRUE(r.valid);

    size_t traced_comm = 0;
    for (const ScheduledEvent &se : r.timeline.events) {
        if (se.event.stream == StreamKind::Communication) {
            EXPECT_NE(se.event.algo, CollAlgo::None) << se.event.name;
            if (se.event.duration > 0.0)
                ++traced_comm;
        } else {
            EXPECT_EQ(se.event.algo, CollAlgo::None) << se.event.name;
        }
    }
    ASSERT_GT(traced_comm, 0u);

    JsonValue doc = traceDocument(r.timeline);
    size_t annotated = 0;
    for (const JsonValue &ev : doc.at("traceEvents").asArray()) {
        const bool comm = ev.at("tid").asLong() == 1;
        EXPECT_EQ(ev.at("args").has("algo"), comm)
            << ev.at("name").asString();
        if (ev.at("args").has("algo"))
            ++annotated;
    }
    EXPECT_EQ(annotated, traced_comm);
}

TEST(AsciiStreams, RendersTwoLanes)
{
    std::string s = asciiStreams(tinyTimeline(), 40);
    EXPECT_NE(s.find("compute |"), std::string::npos);
    EXPECT_NE(s.find("comm    |"), std::string::npos);
    // Blocking comm renders as '=' fill somewhere in the comm lane.
    EXPECT_NE(s.find('='), std::string::npos);
}

TEST(AsciiStreams, EmptyTimelineRendersNothing)
{
    Timeline tl;
    EXPECT_TRUE(asciiStreams(tl).empty());
}

} // namespace madmax
