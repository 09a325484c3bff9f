#include "dse/strategy_explorer.hh"

#include <algorithm>

#include "util/logging.hh"

namespace madmax
{

StrategyExplorer::StrategyExplorer(const PerfModel &model,
                                   EvalEngine *engine)
    : model_(model), shared_(engine)
{
    // The private fallback engine is built eagerly (it is cheap: one
    // thread means no pool) so the const search methods stay safe to
    // call concurrently, matching PerfModel's thread-safety contract.
    if (!shared_)
        owned_ = std::make_unique<EvalEngine>();
}

EvalEngine &
StrategyExplorer::engine() const
{
    return shared_ ? *shared_ : *owned_;
}

std::vector<HierStrategy>
StrategyExplorer::candidates(LayerClass cls)
{
    using S = Strategy;
    switch (cls) {
      case LayerClass::SparseEmbedding:
        // Trillion-parameter tables: sharding variants only
        // (Insight 1); node-local sharding replicates tables across
        // nodes and needs the memory headroom of future devices.
        return {
            HierStrategy{S::MP},
            HierStrategy{S::MP, S::DDP},
        };
      case LayerClass::MoE:
        // Expert-parallel sharding plus the dense-style fallbacks.
        return {
            HierStrategy{S::MP},
            HierStrategy{S::MP, S::DDP},
            HierStrategy{S::FSDP},
            HierStrategy{S::DDP},
            HierStrategy{S::TP, S::DDP},
        };
      case LayerClass::DenseEmbedding:
      case LayerClass::BaseDense:
      case LayerClass::Transformer:
        return {
            HierStrategy{S::FSDP},
            HierStrategy{S::DDP},
            HierStrategy{S::TP},
            HierStrategy{S::TP, S::DDP},
            HierStrategy{S::DDP, S::TP},
            HierStrategy{S::TP, S::FSDP},
            HierStrategy{S::FSDP, S::DDP},
            HierStrategy{S::DDP, S::FSDP},
        };
    }
    panic("candidates: unknown LayerClass");
}

Exploration
StrategyExplorer::explore(const ModelDesc &desc, const TaskSpec &task,
                          const ExplorerOptions &options) const
{
    SearchSpace space =
        makeSearchSpace({&model_}, desc, task, options.explorePrefetch);
    // The full plan product in canonical enumeration order (a golden-
    // suite compatibility contract — see dse::enumeratePlans).
    SearchOutcome outcome = runSearch("exhaustive", space, engine());

    Exploration out;
    out.stats = outcome.stats;
    out.results.reserve(outcome.evaluated.size());
    for (SearchCandidate &c : outcome.evaluated) {
        out.results.push_back(ExplorationResult{
            std::move(c.plan), std::move(c.report), EvalStats{}});
    }

    // stable_sort keeps enumeration order on throughput ties, so the
    // ranking is bytewise-identical for any thread count.
    std::stable_sort(
        out.results.begin(), out.results.end(),
        [](const ExplorationResult &a, const ExplorationResult &b) {
            if (a.report.valid != b.report.valid)
                return a.report.valid;
            return a.report.throughput() > b.report.throughput();
        });
    return out;
}

ExplorationResult
StrategyExplorer::best(const ModelDesc &desc, const TaskSpec &task,
                       const ExplorerOptions &options) const
{
    Exploration exploration = explore(desc, task, options);
    if (exploration.results.empty() ||
        !exploration.results.front().report.valid) {
        fatal("StrategyExplorer: no valid plan fits device memory "
              "for '" + desc.name + "'");
    }
    ExplorationResult winner = std::move(exploration.results.front());
    winner.stats = exploration.stats;
    return winner;
}

JsonValue
toJson(const Exploration &exploration, size_t top)
{
    JsonValue results;
    for (size_t i = 0; i < exploration.results.size() && i < top; ++i)
        results.append(toJson(exploration.results[i].report));
    JsonValue out;
    out.set("results", std::move(results));
    out.set("search", toJson(exploration.stats));
    return out;
}

PerfReport
StrategyExplorer::baseline(const ModelDesc &desc,
                           const TaskSpec &task) const
{
    return engine().evaluateOne(model_, desc, task,
                                ParallelPlan::fsdpBaseline());
}

} // namespace madmax
