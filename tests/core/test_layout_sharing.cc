/**
 * @file
 * Differential pin for layout sharing. An EvalContext built from a
 * sibling shares the sibling's EvalContext::Layout (the ModelDesc-only
 * part: layer ids, consumer lists, class layout, footprint terms, the
 * model's key text) and builds only its cluster and task state. These
 * suites check that sharing changes nothing a caller can see:
 *
 *  - LayoutSharing.SiblingMatchesStandalone walks the zoo (GPT-3,
 *    LLaMA-2-70B, LLM-MoE, DLRM-A, DLRM-A-MoE, ViT-22B) x
 *    {pre-training, inference} over a node-count sweep, flat and
 *    under the dc-pod-fleet topology, and the cloud catalog: on every
 *    hardware point a sibling of the first point's context and a
 *    standalone context give bit-identical reports and verdicts for
 *    every explorer plan with prefetch on and off, and equal memo-key
 *    prefixes;
 *  - LayoutSharing.SearchesMatchEngineBuiltContexts runs the guided
 *    searches at engine jobs 1 and 4 with and without RunContexts:
 *    equal visit lists and frontiers, and one layout per search;
 *  - LayoutSharingEngine.EngineBatchMatchesStandalone evaluates one
 *    batch over every hardware point against standalone contexts;
 *  - LayoutSharingEngine.ConcurrentSiblingsMatchStandalone builds and
 *    uses siblings of one context on several threads at once.
 *
 * A sibling takes its ModelDesc and TaskSpec from the context it
 * shares a layout with, so it cannot be built over another model.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../report_check.hh"
#include "core/eval_context.hh"
#include "dse/pareto.hh"
#include "dse/pareto_engine.hh"
#include "dse/search_strategy.hh"
#include "engine/eval_engine.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"

namespace madmax
{

namespace
{

struct ZooCase
{
    std::string name;
    ModelDesc (*model)();
    ClusterSpec (*cluster)();
};

ModelDesc
vit22b()
{
    return model_zoo::vit(model_zoo::VitSize::B22, 4096);
}

const std::vector<ZooCase> &
zooCases()
{
    static const std::vector<ZooCase> cases = {
        {"Gpt3", model_zoo::gpt3, hw_zoo::llmTrainingSystem},
        {"Llama2_70b", model_zoo::llama2_70b, hw_zoo::llmTrainingSystem},
        {"LlmMoe", model_zoo::llmMoe, hw_zoo::llmTrainingSystem},
        {"DlrmA", model_zoo::dlrmA, hw_zoo::dlrmTrainingSystem},
        {"DlrmAMoe", model_zoo::dlrmAMoe, hw_zoo::dlrmTrainingSystem},
        {"Vit22b", vit22b, hw_zoo::llmTrainingSystem},
    };
    return cases;
}

TaskSpec
taskFor(bool inference)
{
    return inference ? TaskSpec::inference() : TaskSpec::preTraining();
}

/** A node-count sweep of @p base up to its own size, flat and under
 *  dc-pod-fleet, then the cloud catalog at that size. */
std::vector<ClusterSpec>
hardwareFor(const ClusterSpec &base)
{
    const int n = base.numNodes;
    const std::vector<HardwarePoint> sweep =
        nodeCountSweep(base, {n / 4, n / 2, n});
    std::vector<ClusterSpec> out;
    for (const HardwarePoint &p : sweep)
        out.push_back(p.cluster);
    for (const HardwarePoint &p : sweep) {
        out.push_back(hw_zoo::withTopology(
            p.cluster, hw_zoo::dcPodFleetTopology(p.cluster)));
    }
    for (const HardwarePoint &p : cloudHardwareCatalog(n))
        out.push_back(p.cluster);
    return out;
}

/** The explorer's plans for @p desc, each with prefetch on and off. */
std::vector<ParallelPlan>
everyPlan(const PerfModel &perf, const ModelDesc &desc,
          const TaskSpec &task)
{
    std::vector<ParallelPlan> plans =
        enumeratePlans(makeSearchSpace({&perf}, desc, task));
    const size_t assignments = plans.size();
    for (size_t i = 0; i < assignments; ++i) {
        plans.push_back(plans[i]);
        plans.back().fsdpPrefetch = !plans[i].fsdpPrefetch;
    }
    return plans;
}

/** Byte-exact fingerprint of one visited candidate. */
std::string
candidateKey(size_t hwIndex, const ParallelPlan &plan,
             const PerfReport &report)
{
    std::string key = std::to_string(hwIndex) + '|' + plan.toString() +
                      '|' + std::to_string(report.valid) + '|';
    char buf[96];
    std::snprintf(buf, sizeof buf, "%a|%a|%a|%a", report.iterationTime,
                  report.exposedCommTime, report.serializedTime,
                  report.memory.total());
    return key + buf;
}

std::vector<std::string>
visitTrace(const SearchOutcome &outcome)
{
    std::vector<std::string> trace;
    for (const SearchCandidate &c : outcome.evaluated)
        trace.push_back(candidateKey(c.hwIndex, c.plan, c.report));
    return trace;
}

/** The (memory, throughput) frontier of the valid visited points, as
 *  indices into outcome.evaluated. */
std::vector<size_t>
frontierOf(const SearchOutcome &outcome)
{
    std::vector<ParetoPoint> points;
    for (size_t i = 0; i < outcome.evaluated.size(); ++i) {
        const PerfReport &r = outcome.evaluated[i].report;
        if (r.valid)
            points.push_back(
                ParetoPoint{r.memory.total(), r.throughput(), i});
    }
    std::vector<size_t> out;
    for (size_t k : paretoFrontier(points))
        out.push_back(points[k].tag);
    return out;
}

EvalEngineOptions
withJobs(int jobs)
{
    EvalEngineOptions eo;
    eo.jobs = jobs;
    return eo;
}

/** (zoo case, inference). */
using ZooParam = std::tuple<size_t, bool>;

std::string
zooParamName(const ::testing::TestParamInfo<ZooParam> &info)
{
    return zooCases()[std::get<0>(info.param)].name +
           (std::get<1>(info.param) ? "_Inference" : "_PreTraining");
}

class LayoutSharing : public ::testing::TestWithParam<ZooParam>
{
};

} // namespace

TEST_P(LayoutSharing, SiblingMatchesStandalone)
{
    const auto [zoo, inference] = GetParam();
    const ZooCase &z = zooCases()[zoo];
    const ModelDesc desc = z.model();
    const TaskSpec task = taskFor(inference);
    const std::vector<ClusterSpec> hw = hardwareFor(z.cluster());

    // Timelines on, so every event's label and interval is compared;
    // memory ignored for half the points, so OOM plans splice too.
    std::vector<PerfModel> models;
    for (size_t i = 0; i < hw.size(); ++i) {
        PerfModelOptions opts;
        opts.keepTimeline = true;
        opts.ignoreMemory = i % 2 == 1;
        models.emplace_back(hw[i], opts);
    }
    const EvalContext first(models[0], desc, task);
    const std::vector<ParallelPlan> plans = everyPlan(models[0], desc, task);
    for (size_t i = 0; i < models.size(); ++i) {
        SCOPED_TRACE(hw[i].name + " #" + std::to_string(i));
        const EvalContext sibling(models[i], first);
        const EvalContext standalone(models[i], desc, task);
        ASSERT_EQ(sibling.layout().get(), first.layout().get());
        ASSERT_EQ(&sibling.desc(), &desc);
        ASSERT_EQ(&sibling.task(), &task);
        EXPECT_EQ(sibling.memoPrefix()->text, standalone.memoPrefix()->text);
        EXPECT_EQ(sibling.memoPrefix()->text,
                  memoKeyPrefix(models[i], desc, task)->text);
        for (const ParallelPlan &plan : plans) {
            SCOPED_TRACE(plan.toString());
            testing::expectBitIdentical(sibling.verdict(plan),
                                        standalone.verdict(plan));
            testing::expectBitIdentical(sibling.evaluate(plan),
                                        standalone.evaluate(plan));
            if (::testing::Test::HasFailure())
                return; // One mismatch is enough signal.
        }
    }
}

TEST_P(LayoutSharing, SearchesMatchEngineBuiltContexts)
{
    const auto [zoo, inference] = GetParam();
    const ZooCase &z = zooCases()[zoo];
    const ModelDesc desc = z.model();
    const TaskSpec task = taskFor(inference);
    std::vector<PerfModel> models;
    for (const ClusterSpec &c : hardwareFor(z.cluster()))
        models.emplace_back(c);
    std::vector<const PerfModel *> ptrs;
    for (const PerfModel &m : models)
        ptrs.push_back(&m);
    const SearchSpace space = makeSearchSpace(ptrs, desc, task);

    for (const char *name : {"coordinate-descent", "annealing", "genetic"}) {
        for (int jobs : {1, 4}) {
            SCOPED_TRACE(std::string(name) + " jobs " +
                         std::to_string(jobs));
            SearchOptions opts;
            opts.maxEvaluations = 40;
            EvalEngine engine(withJobs(jobs));
            EvalEngine reference(withJobs(jobs));
            RunContexts contexts(space);
            const SearchOutcome shared =
                runSearch(name, space, engine, opts, &contexts);
            const SearchOutcome built =
                runSearch(name, space, reference, opts);
            EXPECT_EQ(visitTrace(shared), visitTrace(built));
            EXPECT_EQ(frontierOf(shared), frontierOf(built));
            EXPECT_FALSE(frontierOf(shared).empty());

            // One layout for the whole run: every point's context
            // holds it, and nothing else does.
            const EvalContext *head = contexts.at(0);
            ASSERT_NE(head, nullptr);
            for (size_t hw = 0; hw < models.size(); ++hw)
                EXPECT_EQ(contexts.at(hw)->layout().get(),
                          head->layout().get());
            EXPECT_EQ(head->layout().use_count(),
                      static_cast<long>(models.size()));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, LayoutSharing,
                         ::testing::Combine(::testing::Range<size_t>(0, 6),
                                            ::testing::Bool()),
                         zooParamName);

TEST(LayoutSharingEngine, EngineBatchMatchesStandalone)
{
    // One batch over every hardware point: the engine builds one
    // context per point's group.
    const ModelDesc desc = model_zoo::gpt3();
    const TaskSpec task = TaskSpec::preTraining();
    std::vector<PerfModel> models;
    for (const ClusterSpec &c : hardwareFor(hw_zoo::llmTrainingSystem()))
        models.emplace_back(c);
    for (int jobs : {1, 4}) {
        EvalEngine engine(withJobs(jobs));
        std::vector<PlanRequest> requests;
        for (const PerfModel &m : models) {
            for (const ParallelPlan &plan : everyPlan(m, desc, task)) {
                PlanRequest req;
                req.model = &m;
                req.desc = &desc;
                req.task = &task;
                req.plan = plan;
                requests.push_back(std::move(req));
            }
        }
        const std::vector<PerfReport> got = engine.evaluateAll(requests);
        ASSERT_EQ(got.size(), requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
            const PlanRequest &req = requests[i];
            SCOPED_TRACE(req.model->cluster().name + " " +
                         req.plan.toString());
            testing::expectBitIdentical(
                got[i], EvalContext(*req.model, desc, task).evaluate(req.plan));
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(LayoutSharingEngine, ConcurrentSiblingsMatchStandalone)
{
    // Siblings built and used on four threads at once: the layout's
    // key text is built by whichever thread asks first.
    const ModelDesc desc = model_zoo::llmMoe();
    const TaskSpec task = TaskSpec::preTraining();
    std::vector<PerfModel> models;
    for (const ClusterSpec &c : hardwareFor(hw_zoo::llmTrainingSystem()))
        models.emplace_back(c);
    const EvalContext first(models[0], desc, task);
    const std::vector<ParallelPlan> plans = everyPlan(models[0], desc, task);

    std::vector<std::vector<PerfReport>> got(models.size());
    std::vector<std::string> prefixes(models.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = t; i < models.size(); i += 4) {
                const EvalContext sibling(models[i], first);
                prefixes[i] = sibling.memoPrefix()->text;
                for (const ParallelPlan &plan : plans)
                    got[i].push_back(sibling.evaluate(plan));
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (size_t i = 0; i < models.size(); ++i) {
        SCOPED_TRACE(models[i].cluster().name + " #" + std::to_string(i));
        const EvalContext standalone(models[i], desc, task);
        EXPECT_EQ(prefixes[i], standalone.memoPrefix()->text);
        ASSERT_EQ(got[i].size(), plans.size());
        for (size_t p = 0; p < plans.size(); ++p)
            testing::expectBitIdentical(got[i][p],
                                        standalone.evaluate(plans[p]));
    }
}

} // namespace madmax
