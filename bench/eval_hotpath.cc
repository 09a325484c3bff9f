/**
 * @file
 * Evaluation hot-path microbench: quantifies what the shared
 * EvalContext buys a sweep. Four measurements over the GPT-3 explore
 * plan set on the LLM training system:
 *
 *  - cold:   PerfModel::evaluate per plan — every call builds a
 *            throwaway context (validation, per-layer times, resolved
 *            collectives), the pre-overhaul cost structure;
 *  - reuse:  EvalContext::evaluate per plan on one shared context —
 *            the per-plan marginal cost (graph splice + schedule +
 *            linear overlap sweep only);
 *  - sweep:  StrategyExplorer::explore through a fresh EvalEngine
 *            with `--jobs` workers (default 1), the end-to-end
 *            `madmax explore` hot path (grouped contexts + memo keys
 *            + OOM pruning). cold and reuse are always single-thread;
 *  - walk:   EvalContext::evaluate over a precomputed single-class
 *            mutation walk — the guided-search workload shape — on
 *            warmed strategy tables. Every evaluation splices its
 *            graph from cached segment templates, so the walk is
 *            timed twice through the same path and emitted under both
 *            historical record names (full_mutate_evals_per_s,
 *            delta_evals_per_s) that the perf gate tracks;
 *            delta_over_full_speedup reads about 1.0 by
 *            construction.
 *
 * Reference point: before the EvalContext overhaul (PR 4), the sweep
 * measurement on this workload ran at ~1530 evals/s on the CI
 * container (72 evaluations in 47.1 ms); the acceptance bar for the
 * overhaul was >= 3x that. The recorded sweep_evals_per_sec tracks
 * the same quantity going forward.
 *
 * Usage: eval_hotpath [--json BENCH_eval_hotpath.json] [--jobs N]
 */

#include <iostream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/eval_context.hh"
#include "dse/strategy_explorer.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace madmax;

namespace
{

constexpr int kRepeats = 5;

/** Best-of-N seconds for one measurement thunk. */
template <typename Fn>
double
bestOf(Fn &&fn)
{
    double best = 1e300;
    for (int rep = 0; rep < kRepeats; ++rep) {
        bench::WallTimer timer;
        fn();
        best = std::min(best, timer.seconds());
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReporter reporter("eval_hotpath", argc, argv);
    // 0 = one per core, resolved here so the label and record carry
    // the real count.
    const int sweep_jobs = reporter.jobs() == 0
        ? ThreadPool::defaultConcurrency()
        : reporter.jobs();
    bench::banner("Evaluation hot path: cold vs. context-reuse vs. "
                  "engine sweep (GPT-3 explore plan set)",
                  "");

    ModelDesc desc = model_zoo::gpt3();
    ClusterSpec cluster = hw_zoo::llmTrainingSystem();
    TaskSpec task = TaskSpec::preTraining();
    PerfModel perf(cluster);

    // The sweep's plan list: every feasible plan explore() evaluates
    // (infeasible ones are pruned by the engine's memory pre-pass and
    // would make cold vs. reuse asymmetric).
    ExplorerOptions opts;
    opts.explorePrefetch = true;
    std::vector<ParallelPlan> plans;
    {
        StrategyExplorer explorer(perf);
        Exploration ex = explorer.explore(desc, task, opts);
        for (const ExplorationResult &r : ex.results) {
            if (r.report.valid)
                plans.push_back(r.plan);
        }
    }

    double cold_s = bestOf([&] {
        for (const ParallelPlan &plan : plans)
            perf.evaluate(desc, task, plan);
    });
    double reuse_s = bestOf([&] {
        EvalContext context(perf, desc, task);
        for (const ParallelPlan &plan : plans)
            context.evaluate(plan);
    });

    // Walk phase: a seeded walk that mutates one layer class per
    // step, the shape annealing/genetic mutation loops produce. The
    // walk stays inside the feasible plan set (OOM verdicts
    // short-circuit without splicing, which would flatter the
    // measurement) and is precomputed so the timed region measures
    // evaluation only.
    constexpr size_t kWalkSteps = 512;
    std::vector<ParallelPlan> walk;
    {
        std::vector<LayerClass> classes;
        for (LayerClass cls : {LayerClass::SparseEmbedding,
                               LayerClass::DenseEmbedding,
                               LayerClass::BaseDense,
                               LayerClass::Transformer, LayerClass::MoE}) {
            if (desc.graph.hasClass(cls))
                classes.push_back(cls);
        }
        auto planKey = [](const ParallelPlan &p) {
            return p.toString() + (p.fsdpPrefetch ? "+p" : "-p");
        };
        std::set<std::string> feasible;
        for (const ParallelPlan &p : plans)
            feasible.insert(planKey(p));
        ParallelPlan cur = plans.front();
        std::mt19937_64 rng(0x6d61646d6178ull); // "madmax"
        size_t attempts = 0;
        while (walk.size() < kWalkSteps && attempts++ < kWalkSteps * 64) {
            LayerClass cls = classes[rng() % classes.size()];
            const std::vector<HierStrategy> &cands =
                StrategyExplorer::candidates(cls);
            HierStrategy hs = cands[rng() % cands.size()];
            if (cur.strategyFor(cls) == hs)
                continue;
            ParallelPlan next = cur;
            next.set(cls, hs);
            if (!feasible.count(planKey(next)))
                continue;
            walk.push_back(next);
            cur = next;
        }
    }

    // Both timings share one context, so they measure the marginal
    // per-eval cost on warmed strategy tables.
    EvalContext mut_context(perf, desc, task);
    auto walkOnce = [&] {
        for (const ParallelPlan &plan : walk)
            mut_context.evaluate(plan);
    };
    double full_mut_s = bestOf(walkOnce);
    double delta_s = bestOf(walkOnce);

    long sweep_evals = 0;
    double sweep_s = bestOf([&] {
        // Fresh engine per run: a warm memo cache would measure cache
        // hits, not evaluations. --jobs applies here only; the cold
        // and reuse loops are single-thread by construction.
        EvalEngineOptions eo;
        eo.jobs = sweep_jobs;
        EvalEngine engine(eo);
        StrategyExplorer explorer(perf, &engine);
        Exploration ex = explorer.explore(desc, task, opts);
        sweep_evals = ex.stats.evaluations;
    });

    const double n = static_cast<double>(plans.size());
    double cold_rate = n / cold_s;
    double reuse_rate = n / reuse_s;
    double sweep_rate = static_cast<double>(sweep_evals) / sweep_s;
    const double walk_n = static_cast<double>(walk.size());
    double full_mut_rate = walk_n / full_mut_s;
    double delta_rate = walk_n / delta_s;

    AsciiTable table({"path", "wall", "evals", "evals/s"});
    table.addRow({"cold (context per eval)", formatTime(cold_s),
                  std::to_string(plans.size()),
                  formatCount(cold_rate)});
    table.addRow({"reuse (shared context)", formatTime(reuse_s),
                  std::to_string(plans.size()),
                  formatCount(reuse_rate)});
    table.addRow({strfmt("sweep (explore, %d job%s)", sweep_jobs,
                         sweep_jobs == 1 ? "" : "s"),
                  formatTime(sweep_s),
                  std::to_string(sweep_evals),
                  formatCount(sweep_rate)});
    table.addRow({"mutation walk", formatTime(full_mut_s),
                  std::to_string(walk.size()),
                  formatCount(full_mut_rate)});
    table.addRow({"mutation walk (again)", formatTime(delta_s),
                  std::to_string(walk.size()),
                  formatCount(delta_rate)});
    table.print(std::cout);
    std::cout << strfmt("context reuse speedup over cold: %.2fx\n",
                        reuse_rate / cold_rate);

    reporter.record("cold_evals_per_sec", cold_rate, "evals/s");
    reporter.record("reuse_evals_per_sec", reuse_rate, "evals/s");
    reporter.record("sweep_evals_per_sec", sweep_rate, "evals/s");
    reporter.record("reuse_over_cold_speedup", reuse_rate / cold_rate,
                    "x");
    reporter.record("sweep_evaluations",
                    static_cast<double>(sweep_evals), "count");
    reporter.record("sweep_jobs", static_cast<double>(sweep_jobs),
                    "threads");
    reporter.record("plan_count", n, "count");
    reporter.record("full_mutate_evals_per_s", full_mut_rate,
                    "evals/s");
    reporter.record("delta_evals_per_s", delta_rate, "evals/s");
    reporter.record("delta_over_full_speedup",
                    delta_rate / full_mut_rate, "x");
    reporter.record("walk_steps", walk_n, "count");
    return 0;
}
