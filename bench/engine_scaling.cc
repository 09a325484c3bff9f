/**
 * @file
 * EvalEngine scaling bench: StrategyExplorer::explore over the GPT-3
 * zoo entry on the LLM training system with 1 thread vs N threads
 * (fresh engines, so no cross-run cache pollution). Verifies that the
 * ranked plan order is identical and reports the wall-clock speedup —
 * the repo's first machine-readable perf record (--json).
 *
 * Usage: engine_scaling [--jobs N] [--json BENCH_engine_scaling.json]
 * --jobs sets the parallel side of the comparison (default 4).
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace madmax;

namespace
{

struct Run
{
    double seconds = 0.0;
    std::vector<std::string> ranking;
    EvalStats stats;
};

Run
runExplore(const PerfModel &model, const ModelDesc &desc, int jobs,
           int repeats)
{
    // Fresh engine per run: a warm memo cache would turn the repeat
    // loop into a cache-hit benchmark.
    Run run;
    run.seconds = 1e300;
    for (int rep = 0; rep < repeats; ++rep) {
        EvalEngineOptions eo;
        eo.jobs = jobs;
        EvalEngine engine(eo);
        StrategyExplorer explorer(model, &engine);
        ExplorerOptions opts;
        opts.explorePrefetch = true; // Larger space: prefetch variants.
        bench::WallTimer timer;
        Exploration ex =
            explorer.explore(desc, TaskSpec::preTraining(), opts);
        double s = timer.seconds();
        if (s < run.seconds) {
            run.seconds = s;
            run.stats = ex.stats;
        }
        run.ranking.clear();
        for (const ExplorationResult &r : ex.results)
            run.ranking.push_back(r.plan.toString());
    }
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReporter reporter("engine_scaling", argc, argv);
    // Parallel side of the comparison: --jobs as given (0 = one per
    // core, resolved here so every label carries the real count), or
    // 4 when the flag is absent.
    int jobs = reporter.jobsSpecified() ? reporter.jobs() : 4;
    if (jobs == 0)
        jobs = ThreadPool::defaultConcurrency();
    const int repeats = 5;

    bench::banner(
        std::cout,
        "EvalEngine scaling: explore(GPT-3) with 1 vs " +
            std::to_string(jobs) + " jobs",
        "");

    ModelDesc model = model_zoo::gpt3();
    PerfModel perf(hw_zoo::llmTrainingSystem());

    Run serial = runExplore(perf, model, 1, repeats);
    Run parallel = runExplore(perf, model, jobs, repeats);

    bool same_order = serial.ranking == parallel.ranking;
    double speedup =
        parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;

    AsciiTable table({"jobs", "wall", "evaluations", "pruned",
                      "cache hits"});
    table.addRow({"1", formatTime(serial.seconds),
                  std::to_string(serial.stats.evaluations),
                  std::to_string(serial.stats.pruned),
                  std::to_string(serial.stats.cacheHits)});
    table.addRow({std::to_string(jobs), formatTime(parallel.seconds),
                  std::to_string(parallel.stats.evaluations),
                  std::to_string(parallel.stats.pruned),
                  std::to_string(parallel.stats.cacheHits)});
    table.print(std::cout);
    int cores = ThreadPool::defaultConcurrency();
    std::cout << strfmt("speedup: %.2fx; identical ranking: %s (%zu "
                        "plans)\n",
                        speedup, same_order ? "yes" : "NO",
                        serial.ranking.size());
    if (cores < jobs) {
        std::cout << strfmt(
            "note: only %d hardware thread(s) available — the "
            "%d-job run cannot beat serial on this host\n",
            cores, jobs);
    }

    reporter.record("explore_gpt3_jobs1_seconds", serial.seconds, "s");
    reporter.record(strfmt("explore_gpt3_jobs%d_seconds", jobs),
                    parallel.seconds, "s");
    reporter.record("explore_gpt3_speedup", speedup, "x");
    reporter.record("explore_gpt3_identical_ordering",
                    same_order ? 1.0 : 0.0, "bool");
    reporter.record("explore_gpt3_evaluations",
                    static_cast<double>(serial.stats.evaluations),
                    "count");
    reporter.record("explore_gpt3_pruned",
                    static_cast<double>(serial.stats.pruned), "count");
    reporter.record("hardware_concurrency", static_cast<double>(cores),
                    "threads");

    return same_order ? 0 : 1;
}
