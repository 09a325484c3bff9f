#include <gtest/gtest.h>

#include "fleet/fleet_sim.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

TEST(FleetSimulator, EmptyFleetIsFatal)
{
    FleetSimulator fleet;
    EXPECT_THROW(fleet.run(), ConfigError);
    EXPECT_THROW(fleet.addJob(FleetJob{"X", model_zoo::dlrmB(),
                                       TaskSpec::preTraining(),
                                       ParallelPlan::fsdpBaseline(),
                                       hw_zoo::dlrmTrainingSystem(),
                                       0.0}),
                 ConfigError);
}

TEST(FleetSimulator, BreakdownFractionsSumToOne)
{
    FleetSimulator fleet = FleetSimulator::representativeFleet();
    FleetReport report = fleet.run();
    auto check = [](const CycleBreakdown &b, const std::string &tag) {
        EXPECT_NEAR(b.compute + b.exposedComm + b.exposedMemcpy + b.idle,
                    1.0, 1e-9)
            << tag;
        EXPECT_GE(b.compute, 0.0) << tag;
        EXPECT_GE(b.exposedComm, 0.0) << tag;
    };
    check(report.overall, "overall");
    for (const auto &[family, b] : report.byFamily)
        check(b, family);
}

TEST(FleetSimulator, ReproducesFig4aCycleShares)
{
    // O3: compute + exposed communication make up >82% of observable
    // cycles; exposed communication sits in the 14-32% band.
    FleetReport report = FleetSimulator::representativeFleet().run();
    double active =
        report.overall.compute + report.overall.exposedComm;
    EXPECT_GT(active, 0.80);
    EXPECT_GT(report.overall.exposedComm, 0.10);
    EXPECT_LT(report.overall.exposedComm, 0.35);
}

TEST(FleetSimulator, ReproducesFig4bOverlapOrdering)
{
    // O4: compute-dominated LLMs overlap more communication than
    // DLRMs (>65% vs ~50%).
    FleetReport report = FleetSimulator::representativeFleet().run();
    ASSERT_TRUE(report.overlapByFamily.count("DLRM"));
    ASSERT_TRUE(report.overlapByFamily.count("LLM"));
    EXPECT_GT(report.overlapByFamily.at("LLM"),
              report.overlapByFamily.at("DLRM"));
    EXPECT_GT(report.overlapByFamily.at("LLM"), 0.60);
}

TEST(FleetSimulator, ReproducesFig4cCollectiveMix)
{
    // O4: DLRM communication is All2All-heavy; LLM communication is
    // AllReduce/AllGather-class dominated.
    FleetReport report = FleetSimulator::representativeFleet().run();
    const auto &dlrm = report.collectiveMixByFamily.at("DLRM");
    const auto &llm = report.collectiveMixByFamily.at("LLM");

    double dlrm_a2a = dlrm.count(EventCategory::All2All)
        ? dlrm.at(EventCategory::All2All)
        : 0.0;
    double llm_a2a = llm.count(EventCategory::All2All)
        ? llm.at(EventCategory::All2All)
        : 0.0;
    EXPECT_GT(dlrm_a2a, 0.25);
    // The emphasis is relative: DLRMs spend far more of their
    // communication on All2All than LLMs do (which spend ~none).
    EXPECT_GT(dlrm_a2a, 10.0 * llm_a2a + 0.01);

    double llm_ar_class = 0.0;
    for (EventCategory cat :
         {EventCategory::AllReduce, EventCategory::AllGather,
          EventCategory::ReduceScatter}) {
        if (llm.count(cat))
            llm_ar_class += llm.at(cat);
    }
    EXPECT_GT(llm_ar_class, 0.9);

    // Mixes are normalized per family.
    double total = 0.0;
    for (const auto &[cat, share] : dlrm)
        total += share;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FleetSimulator, OomJobsAreSkippedWithWarning)
{
    FleetSimulator fleet;
    // A job that cannot fit: DDP dense on 40 GB devices.
    ParallelPlan ddp;
    ddp.set(LayerClass::BaseDense, HierStrategy{Strategy::DDP});
    fleet.addJob(FleetJob{"DLRM", model_zoo::dlrmA(),
                          TaskSpec::preTraining(), ddp,
                          hw_zoo::dlrmTrainingSystem(), 1.0});
    // All jobs OOM: fatal.
    EXPECT_THROW(fleet.run(), ConfigError);

    // Adding one valid job rescues the fleet.
    fleet.addJob(FleetJob{"DLRM", model_zoo::dlrmA(),
                          TaskSpec::preTraining(),
                          ParallelPlan::fsdpBaseline(),
                          hw_zoo::dlrmTrainingSystem(), 1.0});
    FleetReport report = fleet.run();
    EXPECT_GT(report.overall.compute, 0.0);
}

TEST(FleetSimulator, WeightsBiasTheAggregate)
{
    // Two fleets with the same jobs but opposite weights should have
    // different overall breakdowns.
    auto make = [](double dlrm_w, double llm_w) {
        FleetSimulator fleet;
        fleet.addJob(FleetJob{"DLRM", model_zoo::dlrmA(),
                              TaskSpec::preTraining(),
                              ParallelPlan::fsdpBaseline(),
                              hw_zoo::dlrmTrainingSystem(), dlrm_w});
        fleet.addJob(FleetJob{"LLM", model_zoo::llama65b(),
                              TaskSpec::preTraining(),
                              ParallelPlan::fsdpBaseline(),
                              hw_zoo::llmTrainingSystem(), llm_w});
        return fleet.run();
    };
    FleetReport dlrm_heavy = make(10.0, 1.0);
    FleetReport llm_heavy = make(1.0, 10.0);
    // DLRM-heavy fleets expose more communication overall.
    EXPECT_GT(dlrm_heavy.overall.exposedComm,
              llm_heavy.overall.exposedComm);
}

} // namespace madmax
