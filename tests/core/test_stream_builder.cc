/**
 * @file
 * Stream-wiring semantics (§IV-C), pinned on the reference builder in
 * tests/reference. The spliced production graphs are compared against
 * that builder event for event in test_splice_differential.cc, so
 * these properties carry over to every evaluation.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/layer_processor.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "reference/reference_builder.hh"

namespace madmax
{

namespace
{

std::vector<TraceEvent>
buildEvents(const ModelDesc &desc, const TaskSpec &task,
            const ParallelPlan &plan, const ClusterSpec &cluster)
{
    LayerProcessor processor(cluster, desc);
    TopologyCollectiveModel collectives(cluster);
    return reference::buildEvents(desc, task, plan, cluster, processor,
                                  collectives);
}

const TraceEvent *
findByName(const std::vector<TraceEvent> &events, const std::string &name)
{
    for (const TraceEvent &ev : events) {
        if (ev.name == name)
            return &ev;
    }
    return nullptr;
}

ParallelPlan
dlrmDeployedPlan()
{
    ParallelPlan p;
    p.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    p.set(LayerClass::BaseDense,
          HierStrategy{Strategy::TP, Strategy::DDP});
    return p;
}

} // namespace

TEST(StreamBuilder, ForwardAndBackwardEventsPresent)
{
    ModelDesc desc = model_zoo::dlrmA();
    std::vector<TraceEvent> events =
        buildEvents(desc, TaskSpec::preTraining(), dlrmDeployedPlan(),
                    hw_zoo::dlrmTrainingSystem());

    // Compute events for each of the 4 layers in both phases.
    EXPECT_NE(findByName(events, "EMB"), nullptr);
    EXPECT_NE(findByName(events, "Top_MLP"), nullptr);
    EXPECT_NE(findByName(events, "EMB'"), nullptr);
    EXPECT_NE(findByName(events, "Top_MLP'"), nullptr);
    // The embedding All2Alls in both directions.
    EXPECT_NE(findByName(events, "EMB_A2A"), nullptr);
    EXPECT_NE(findByName(events, "EMB_g_A2A"), nullptr);
    // Iteration barrier closes the DAG.
    EXPECT_EQ(events.back().name, "iter_end");
    EXPECT_EQ(events.back().deps.size(), events.size() - 1);
}

TEST(StreamBuilder, InferenceBuildsForwardOnly)
{
    ModelDesc desc = model_zoo::dlrmA();
    std::vector<TraceEvent> events =
        buildEvents(desc, TaskSpec::inference(), dlrmDeployedPlan(),
                    hw_zoo::dlrmTrainingSystem());
    EXPECT_EQ(findByName(events, "EMB'"), nullptr);
    EXPECT_EQ(findByName(events, "EMB_g_A2A"), nullptr);
    for (const TraceEvent &ev : events)
        EXPECT_FALSE(ev.backward && ev.layerIdx >= 0) << ev.name;
}

TEST(StreamBuilder, A2AGatesConsumerCompute)
{
    // Fig. 6: EMB_c_A2A is blocking since the interaction needs its
    // result; the Bot MLP does not and can overlap.
    ModelDesc desc = model_zoo::dlrmA();
    std::vector<TraceEvent> events =
        buildEvents(desc, TaskSpec::preTraining(), dlrmDeployedPlan(),
                    hw_zoo::dlrmTrainingSystem());

    const TraceEvent *a2a = findByName(events, "EMB_A2A");
    const TraceEvent *interact = findByName(events, "Interact");
    const TraceEvent *bot = findByName(events, "Bot_MLP");
    ASSERT_NE(a2a, nullptr);
    ASSERT_NE(interact, nullptr);
    ASSERT_NE(bot, nullptr);

    auto depends_on = [](const TraceEvent *ev, int id) {
        for (int d : ev->deps) {
            if (d == id)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(depends_on(interact, a2a->id));
    EXPECT_FALSE(depends_on(bot, a2a->id));
}

TEST(StreamBuilder, BackwardOrderIsReversed)
{
    ModelDesc desc = model_zoo::dlrmA();
    std::vector<TraceEvent> events =
        buildEvents(desc, TaskSpec::preTraining(), dlrmDeployedPlan(),
                    hw_zoo::dlrmTrainingSystem());
    // Find positions of backward computes.
    std::map<std::string, size_t> pos;
    for (size_t i = 0; i < events.size(); ++i)
        pos[events[i].name] = i;
    EXPECT_LT(pos.at("Top_MLP'"), pos.at("Interact'"));
    EXPECT_LT(pos.at("Interact'"), pos.at("EMB'"));
    // Backward starts only after forward finished.
    EXPECT_LT(pos.at("Top_MLP"), pos.at("Top_MLP'"));
}

TEST(StreamBuilder, NonBlockingGradOpsOnlyGateBarrier)
{
    ModelDesc desc = model_zoo::dlrmA();
    std::vector<TraceEvent> events =
        buildEvents(desc, TaskSpec::preTraining(), dlrmDeployedPlan(),
                    hw_zoo::dlrmTrainingSystem());
    // The DDP weight-gradient AR is non-blocking; nothing except the
    // barrier may depend on it.
    const TraceEvent *ar = findByName(events, "Top_MLP_g_AR");
    ASSERT_NE(ar, nullptr);
    EXPECT_FALSE(ar->blocking);
    for (const TraceEvent &ev : events) {
        if (ev.name == "iter_end")
            continue;
        for (int d : ev.deps)
            EXPECT_NE(d, ar->id) << ev.name;
    }
}

TEST(StreamBuilder, FsdpPrefetchMovesGatherEarlier)
{
    // Fig. 9: with prefetching, the AllGather of the next layer
    // overlaps the current layer's compute, raising overlap.
    ModelDesc desc = model_zoo::llama65b();
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    ParallelPlan off = ParallelPlan::fsdpBaseline();
    off.fsdpPrefetch = false;
    ParallelPlan on = ParallelPlan::fsdpBaseline();
    on.fsdpPrefetch = true;

    const auto s_off = reference::schedule(
        buildEvents(desc, TaskSpec::preTraining(), off, cluster));
    const auto s_on = reference::schedule(
        buildEvents(desc, TaskSpec::preTraining(), on, cluster));
    auto overlap_fraction = [](const reference::ScheduleResult &s) {
        return (s.commBusy - s.exposedComm) / s.commBusy;
    };
    EXPECT_LT(s_on.timeline.makespan, s_off.timeline.makespan);
    EXPECT_GT(overlap_fraction(s_on), overlap_fraction(s_off));
    // Total communication volume is unchanged.
    EXPECT_NEAR(s_on.commBusy, s_off.commBusy, 1e-9);
}

TEST(StreamBuilder, EventIdsAreSequentialAndDepsBackward)
{
    ModelDesc desc = model_zoo::dlrmATransformer();
    std::vector<TraceEvent> events =
        buildEvents(desc, TaskSpec::preTraining(),
                    ParallelPlan::fsdpBaseline(),
                    hw_zoo::dlrmTrainingSystem());
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].id, static_cast<int>(i));
        for (int d : events[i].deps)
            EXPECT_LT(d, events[i].id);
    }
}

TEST(StreamBuilder, MoeDispatchPrecedesCombine)
{
    ModelDesc desc = model_zoo::dlrmAMoe();
    ParallelPlan plan = dlrmDeployedPlan();
    plan.set(LayerClass::MoE, HierStrategy{Strategy::MP});
    std::vector<TraceEvent> events =
        buildEvents(desc, TaskSpec::preTraining(), plan,
                    hw_zoo::dlrmTrainingSystem());

    const TraceEvent *disp = findByName(events, "MoE_Top_disp_A2A");
    const TraceEvent *comb = findByName(events, "MoE_Top_comb_A2A");
    const TraceEvent *moe = findByName(events, "MoE_Top");
    ASSERT_NE(disp, nullptr);
    ASSERT_NE(comb, nullptr);
    ASSERT_NE(moe, nullptr);
    // dispatch -> compute -> combine chain.
    EXPECT_LT(disp->id, moe->id);
    EXPECT_LT(moe->id, comb->id);
    bool moe_waits_disp = false;
    for (int d : moe->deps)
        moe_waits_disp |= d == disp->id;
    EXPECT_TRUE(moe_waits_disp);
    bool comb_waits_moe = false;
    for (int d : comb->deps)
        comb_waits_moe |= d == moe->id;
    EXPECT_TRUE(comb_waits_moe);
}

TEST(StreamBuilder, ScheduledStreamsRespectStreamExclusivity)
{
    // No two events of the same stream may overlap in time
    // (blocking comm and compute are single-stream; background ops
    // are exempt).
    ModelDesc desc = model_zoo::dlrmATransformer();
    const Timeline tl = reference::schedule(
        buildEvents(desc, TaskSpec::preTraining(),
                    ParallelPlan::fsdpBaseline(),
                    hw_zoo::dlrmTrainingSystem())).timeline;

    std::vector<const ScheduledEvent *> compute, blocking_comm;
    for (const ScheduledEvent &se : tl.events) {
        if (se.event.duration <= 0.0)
            continue;
        if (se.event.stream == StreamKind::Compute)
            compute.push_back(&se);
        else if (se.event.blocking)
            blocking_comm.push_back(&se);
    }
    auto check_disjoint = [](const std::vector<const ScheduledEvent *> &v) {
        for (size_t i = 1; i < v.size(); ++i)
            EXPECT_GE(v[i]->start, v[i - 1]->finish - 1e-12)
                << v[i]->event.name;
    };
    check_disjoint(compute);
    check_disjoint(blocking_comm);
}

} // namespace madmax
