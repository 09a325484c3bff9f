/**
 * @file
 * Google-benchmark micro-benchmarks of the simulator itself: how fast
 * MAD-Max evaluates mappings and sweeps design spaces. This is the
 * "agile exploration" property the paper contrasts with multi-week
 * GPU-cluster experiments (§V quotes ~64K A100-hours for the DLRM
 * validation runs alone).
 */

#include <benchmark/benchmark.h>

#include "collective/topology_model.hh"
#include "config/json.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"

using namespace madmax;

namespace
{

PerfModelOptions
slimOptions()
{
    PerfModelOptions opts;
    opts.keepTimeline = false;
    return opts;
}

void
BM_EvaluateDlrmA(benchmark::State &state)
{
    ModelDesc model = model_zoo::dlrmA();
    PerfModel madmax(hw_zoo::dlrmTrainingSystem(), slimOptions());
    ParallelPlan plan;
    plan.set(LayerClass::BaseDense,
             HierStrategy{Strategy::TP, Strategy::DDP});
    for (auto _ : state) {
        PerfReport r =
            madmax.evaluate(model, TaskSpec::preTraining(), plan);
        benchmark::DoNotOptimize(r.iterationTime);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateDlrmA);

void
BM_EvaluateGpt3(benchmark::State &state)
{
    // 193 layers, ~1000 trace events per iteration.
    ModelDesc model = model_zoo::gpt3();
    PerfModel madmax(hw_zoo::llmTrainingSystem(), slimOptions());
    ParallelPlan plan = ParallelPlan::fsdpBaseline();
    for (auto _ : state) {
        PerfReport r =
            madmax.evaluate(model, TaskSpec::preTraining(), plan);
        benchmark::DoNotOptimize(r.iterationTime);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateGpt3);

void
BM_ExploreDlrmStrategySpace(benchmark::State &state)
{
    // Full 16-plan design-space exploration (Fig. 11).
    ModelDesc model = model_zoo::dlrmA();
    PerfModel madmax(hw_zoo::dlrmTrainingSystem(), slimOptions());
    StrategyExplorer explorer(madmax);
    for (auto _ : state) {
        auto exploration =
            explorer.explore(model, TaskSpec::preTraining());
        benchmark::DoNotOptimize(exploration.results.size());
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ExploreDlrmStrategySpace);

void
BM_ExploreDlrmStrategySpaceUncached(benchmark::State &state)
{
    // Same sweep through a non-memoizing engine: the raw evaluation
    // cost the EvalEngine cache saves on repeated searches.
    ModelDesc model = model_zoo::dlrmA();
    PerfModel madmax(hw_zoo::dlrmTrainingSystem(), slimOptions());
    EvalEngineOptions eo;
    eo.memoize = false;
    EvalEngine engine(eo);
    StrategyExplorer explorer(madmax, &engine);
    for (auto _ : state) {
        auto exploration =
            explorer.explore(model, TaskSpec::preTraining());
        benchmark::DoNotOptimize(exploration.results.size());
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ExploreDlrmStrategySpaceUncached);

void
BM_CollectiveModel(benchmark::State &state)
{
    TopologyCollectiveModel collectives(hw_zoo::llmTrainingSystem());
    double bytes = 1.0e9;
    for (auto _ : state) {
        double t = collectives.time(Collective::AllReduce,
                                    CommScope::Global, bytes);
        benchmark::DoNotOptimize(t);
        bytes = bytes < 2e9 ? bytes + 1.0 : 1.0e9;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollectiveModel);

void
BM_MemoryModel(benchmark::State &state)
{
    ModelDesc model = model_zoo::llama65b();
    MemoryModel memory;
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    ParallelPlan plan = ParallelPlan::fsdpBaseline();
    for (auto _ : state) {
        MemoryFootprint fp = memory.evaluate(
            model, TaskSpec::preTraining(), plan, cluster);
        benchmark::DoNotOptimize(fp.total());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryModel);

void
BM_JsonParseClusterConfig(benchmark::State &state)
{
    const std::string doc = R"json({
        "name": "bench-cluster",
        "device": {"name": "A100", "peak_tflops_16": 312,
                   "hbm_gib": 40, "hbm_gbps": 1600,
                   "intra_node_gbps": 300, "inter_node_gbps": 25},
        "devices_per_node": 8, "num_nodes": 16
    })json";
    for (auto _ : state) {
        JsonValue v = JsonValue::parse(doc);
        benchmark::DoNotOptimize(v.size());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * doc.size()));
}
BENCHMARK(BM_JsonParseClusterConfig);

} // namespace

BENCHMARK_MAIN();
