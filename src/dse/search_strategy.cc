#include "dse/search_strategy.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <unordered_set>

#include "core/eval_context.hh"
#include "dse/strategy_explorer.hh"
#include "util/logging.hh"

namespace madmax
{

namespace
{

/** @name Simulated annealing */
/// @{
/** Initial temperature as a fraction of current throughput. */
constexpr double kInitialTemperature = 0.15;
/** Geometric cooling factor applied per proposal. */
constexpr double kCoolingRate = 0.90;
/** Probability that a proposal mutates the hardware coordinate. */
constexpr double kHardwareMoveProbability = 0.35;
/// @}

/** @name Genetic search */
/// @{
constexpr size_t kPopulationSize = 12;
constexpr int kMaxGenerations = 16;
/** Per-gene mutation probability after crossover. */
constexpr double kMutationRate = 0.25;
/// @}

/**
 * Deterministic bounded draw. std::uniform_int_distribution's mapping
 * is implementation-defined, so the guided searches would produce
 * different (still valid) answers per standard library; a plain modulo
 * over the raw 64-bit stream keeps the searches bit-reproducible
 * everywhere, and the bias is irrelevant at these tiny ranges.
 */
size_t
drawIndex(std::mt19937_64 &rng, size_t bound)
{
    return static_cast<size_t>(rng() % bound);
}

/** Uniform double in [0, 1). */
double
drawUnit(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1p-53;
}

/** The guided strategies' effective evaluation budget. */
long
effectiveBudget(const SearchSpace &space, const SearchOptions &options)
{
    if (options.maxEvaluations < 0)
        return 0; // The caller's budget is already spent.
    if (options.maxEvaluations > 0)
        return options.maxEvaluations;
    size_t size = space.size();
    return std::max<long>(12, static_cast<long>(size / 6));
}

/**
 * Trim a batch so it cannot overshoot the remaining budget even if
 * every point turns out to be a fresh evaluation (cache hits and
 * pruned points just leave budget unspent) — the budget is a hard
 * ceiling, not a soft target.
 */
void
trimToBudget(std::vector<std::pair<size_t, ParallelPlan>> &points,
             long budget, const EvalStats &stats)
{
    long room = budget - stats.evaluations;
    if (room < 0)
        room = 0;
    if (static_cast<long>(points.size()) > room)
        points.resize(static_cast<size_t>(room));
}

/** Throughput if valid, -1 otherwise (worse than any valid plan). */
double
fitnessOf(const PerfReport &report)
{
    return report.valid ? report.throughput() : -1.0;
}

/** A crude but deterministic hardware-capability rank used to pick
 *  the seed hardware point: aggregate best-available peak FLOPS. */
double
hardwareRank(const PerfModel &model)
{
    const ClusterSpec &c = model.cluster();
    double peak = std::max({c.device.peakFlopsTensor16,
                            c.device.peakFlopsTf32,
                            c.device.peakFlopsFp32});
    return peak * c.numDevices();
}

/**
 * The hardware point a guided search seeds on: the warm start's best
 * when the caller provided one (ParetoEngine passes its baseline
 * sweep), otherwise the beefiest by hardwareRank.
 */
size_t
seedHardware(const SearchSpace &space)
{
    if (const SearchCandidate *warm = bestCandidate(space.warmStart))
        return warm->hwIndex;
    size_t best = 0;
    for (size_t hw = 1; hw < space.models.size(); ++hw) {
        if (hardwareRank(*space.models[hw]) >
            hardwareRank(*space.models[best])) {
            best = hw;
        }
    }
    return best;
}

/**
 * The baseline plan every search starts from: the FSDP baseline with
 * prefetching on, matching explore()'s production default — but
 * restricted to the classes the space actually has, so guided plans
 * render (and compare) identically to exhaustively-enumerated ones.
 */
ParallelPlan
seedPlan(const SearchSpace &space)
{
    ParallelPlan base = ParallelPlan::fsdpBaseline();
    ParallelPlan plan;
    plan.fsdpPrefetch = true;
    for (LayerClass cls : space.classes)
        plan.set(cls, base.strategyFor(cls));
    return plan;
}

// --- Exhaustive -------------------------------------------------------

SearchOutcome
exhaustiveSearch(const SearchSpace &space, EvalEngine &engine,
                 const SearchOptions &, RunContexts *shared)
{
    std::vector<ParallelPlan> plans = enumeratePlans(space);
    const size_t hwCount = space.models.size();
    std::vector<std::pair<size_t, ParallelPlan>> points;
    points.reserve(hwCount * plans.size());
    for (size_t hw = 0; hw < hwCount; ++hw) {
        for (ParallelPlan &plan : plans) {
            if (hw + 1 < hwCount)
                points.emplace_back(hw, plan);
            else
                points.emplace_back(hw, std::move(plan));
        }
    }
    // One batch: unless the caller shares its contexts, the engine
    // builds each point's context only if some plan there needs a
    // full evaluation.
    SearchOutcome out;
    evaluateInto(space, engine, shared, std::move(points), out);
    return out;
}

// --- Coordinate descent -----------------------------------------------

SearchOutcome
coordinateDescentSearch(const SearchSpace &space, EvalEngine &engine,
                        const SearchOptions &options, RunContexts *shared)
{
    // Coordinate descent terminates on its own (fixpoint, >= 8
    // rounds); the budget only binds when set explicitly.
    const long budget = options.maxEvaluations == 0
        ? std::numeric_limits<long>::max()
        : std::max<long>(0, options.maxEvaluations);
    SearchOutcome out;
    RunContexts own(space);
    RunContexts &contexts = shared ? *shared : own;

    // Seed: the baseline plan — on the warm start's best hardware
    // point when the caller provided one, otherwise on every
    // hardware point (a single point when called from
    // StrategyExplorer::best).
    ParallelPlan plan = seedPlan(space);
    std::vector<std::pair<size_t, ParallelPlan>> seeds;
    if (const SearchCandidate *warm = bestCandidate(space.warmStart)) {
        seeds.emplace_back(warm->hwIndex, plan);
    } else {
        for (size_t hw = 0; hw < space.models.size(); ++hw)
            seeds.emplace_back(hw, plan);
    }
    trimToBudget(seeds, budget, out.stats);
    evaluateInto(space, engine, &contexts, std::move(seeds), out);

    size_t hwCur = 0;
    PerfReport best;
    if (const SearchCandidate *c = bestCandidate(out.evaluated)) {
        best = c->report;
        hwCur = c->hwIndex;
    }
    // Whether the best of out.evaluated[first..] beats the incumbent.
    auto bestNewer = [&](size_t first) -> const SearchCandidate * {
        const SearchCandidate *c = bestCandidate(out.evaluated, first);
        return c && (!best.valid ||
                     c->report.throughput() > best.throughput())
            ? c
            : nullptr;
    };

    // Greedy sweeps, one coordinate at a time, until no single
    // change helps. Each sweep is one engine batch: within a sweep
    // every trial varies only that coordinate, so batching matches
    // sequential greedy adoption exactly (argmax == last adopted).
    bool improved = true;
    int rounds = 0;
    while (improved && rounds++ < 8 &&
           out.stats.evaluations < budget) {
        improved = false;
        for (size_t ci = 0; ci < space.classes.size(); ++ci) {
            LayerClass cls = space.classes[ci];
            std::vector<std::pair<size_t, ParallelPlan>> trials;
            for (HierStrategy hs : space.candidates[ci]) {
                if (plan.strategyFor(cls) == hs)
                    continue;
                ParallelPlan p = plan;
                p.set(cls, hs);
                trials.emplace_back(hwCur, std::move(p));
            }
            trimToBudget(trials, budget, out.stats);
            size_t first = out.evaluated.size();
            evaluateInto(space, engine, &contexts, std::move(trials),
                         out);
            if (const SearchCandidate *c = bestNewer(first)) {
                plan = c->plan;
                best = c->report;
                improved = true;
            }
        }
        // The hardware coordinate: the current plan on every other
        // hardware point (a no-op for single-point spaces).
        std::vector<std::pair<size_t, ParallelPlan>> hwTrials;
        for (size_t hw = 0; hw < space.models.size(); ++hw) {
            if (hw != hwCur)
                hwTrials.emplace_back(hw, plan);
        }
        trimToBudget(hwTrials, budget, out.stats);
        size_t first = out.evaluated.size();
        evaluateInto(space, engine, &contexts, std::move(hwTrials),
                     out);
        if (const SearchCandidate *c = bestNewer(first)) {
            hwCur = c->hwIndex;
            best = c->report;
            improved = true;
        }
    }
    return out;
}

// --- Simulated annealing ----------------------------------------------

SearchOutcome
annealingSearch(const SearchSpace &space, EvalEngine &engine,
                const SearchOptions &options, RunContexts *shared)
{
    const long budget = effectiveBudget(space, options);
    std::mt19937_64 rng(options.seed);
    SearchOutcome out;
    RunContexts own(space);
    RunContexts &contexts = shared ? *shared : own;

    // Seed on the most promising hardware point, then give the other
    // points a look while the budget allows half of it for seeding.
    const size_t hwBest = seedHardware(space);
    std::vector<std::pair<size_t, ParallelPlan>> seeds;
    seeds.emplace_back(hwBest, seedPlan(space));
    if (space.warmStart.empty()) {
        for (size_t hw = 0; hw < space.models.size(); ++hw) {
            if (hw != hwBest &&
                static_cast<long>(seeds.size()) < budget / 2) {
                seeds.emplace_back(hw, seedPlan(space));
            }
        }
    }
    trimToBudget(seeds, budget, out.stats);
    evaluateInto(space, engine, &contexts, std::move(seeds), out);

    size_t hwCur = hwBest;
    ParallelPlan planCur = seedPlan(space);
    PerfReport cur;
    if (const SearchCandidate *c = bestCandidate(out.evaluated)) {
        cur = c->report;
        hwCur = c->hwIndex;
        planCur = c->plan;
    }

    // Tabu set: points already visited this run are never
    // re-proposed — with a tight budget every evaluation must be
    // a fresh point, not a random-walk revisit. Keyed by the point's
    // exact index: hw * 25^k + sum (intra_i * 5 + inter_i) * 25^i over
    // the k classes, then the prefetch bit.
    auto pointKey = [&space](size_t hw, const ParallelPlan &plan) {
        uint64_t key = hw;
        for (size_t ci = space.classes.size(); ci-- > 0;) {
            const HierStrategy hs = plan.strategyFor(space.classes[ci]);
            key = key * 25 + static_cast<uint64_t>(hs.intra) * 5 +
                static_cast<uint64_t>(hs.inter);
        }
        return key * 2 + (plan.fsdpPrefetch ? 1 : 0);
    };
    std::unordered_set<uint64_t> seen;
    for (const SearchCandidate &c : out.evaluated)
        seen.insert(pointKey(c.hwIndex, c.plan));

    double temperature = kInitialTemperature;
    // Proposal cap: tabu'd proposals are free, so a small space
    // must not spin forever once it is exhausted.
    long proposals = 0;
    const long maxProposals =
        64 + 16 * static_cast<long>(budget);
    while (out.stats.evaluations < budget &&
           proposals++ < maxProposals) {
        size_t hwNext = hwCur;
        ParallelPlan planNext = planCur;
        bool canMoveHw = space.models.size() > 1;
        // No coordinate has a move at all (every class pinned to
        // one candidate, single hardware point): nothing to walk.
        bool anyClassMutable = false;
        for (const std::vector<HierStrategy> &cands :
             space.candidates) {
            if (cands.size() > 1)
                anyClassMutable = true;
        }
        if (!canMoveHw && !anyClassMutable)
            break;
        bool moveHw = canMoveHw &&
            (!anyClassMutable ||
             drawUnit(rng) < kHardwareMoveProbability);
        if (moveHw) {
            hwNext = drawIndex(rng, space.models.size() - 1);
            if (hwNext >= hwCur)
                ++hwNext;
        } else {
            size_t ci = drawIndex(rng, space.classes.size());
            const std::vector<HierStrategy> &cands =
                space.candidates[ci];
            if (cands.size() < 2)
                continue; // Pinned class; draw another coordinate.
            HierStrategy hs =
                cands[drawIndex(rng, cands.size())];
            if (planNext.strategyFor(space.classes[ci]) == hs)
                continue;
            planNext.set(space.classes[ci], hs);
        }

        if (!seen.insert(pointKey(hwNext, planNext)).second)
            continue; // Already visited; propose something new.

        size_t first = out.evaluated.size();
        evaluateInto(space, engine, &contexts, {{hwNext, planNext}},
                     out);
        const PerfReport &next = out.evaluated[first].report;
        temperature *= kCoolingRate;
        if (!next.valid)
            continue;
        bool accept;
        if (!cur.valid || next.throughput() >= cur.throughput()) {
            accept = true;
        } else {
            double drop = (cur.throughput() - next.throughput()) /
                cur.throughput();
            accept = temperature > 0.0 &&
                drawUnit(rng) < std::exp(-drop / temperature);
        }
        if (accept) {
            hwCur = hwNext;
            planCur = planNext;
            cur = next;
        }
    }
    return out;
}

// --- Genetic ----------------------------------------------------------

SearchOutcome
geneticSearch(const SearchSpace &space, EvalEngine &engine,
              const SearchOptions &options, RunContexts *shared)
{
    const long budget = effectiveBudget(space, options);
    std::mt19937_64 rng(options.seed);
    SearchOutcome out;
    RunContexts own(space);
    RunContexts &contexts = shared ? *shared : own;

    // Genome: hardware index + one candidate index per class.
    struct Individual
    {
        size_t hw = 0;
        std::vector<size_t> genes;
        double fitness = -1.0;
    };
    auto toPlan = [&](const Individual &ind) {
        ParallelPlan plan = seedPlan(space);
        for (size_t ci = 0; ci < space.classes.size(); ++ci)
            plan.set(space.classes[ci],
                     space.candidates[ci][ind.genes[ci]]);
        return plan;
    };
    auto baselineGenes = [&] {
        ParallelPlan base = seedPlan(space);
        std::vector<size_t> genes(space.classes.size(), 0);
        for (size_t ci = 0; ci < space.classes.size(); ++ci) {
            const std::vector<HierStrategy> &cands =
                space.candidates[ci];
            for (size_t k = 0; k < cands.size(); ++k) {
                if (cands[k] == base.strategyFor(space.classes[ci]))
                    genes[ci] = k;
            }
        }
        return genes;
    };

    // Seed phase: sweep each class around the baseline on the
    // most promising hardware point and keep the per-class winners —
    // the population starts from locally-good building blocks instead
    // of uniform noise.
    const size_t hwSeed = seedHardware(space);
    std::vector<size_t> winners = baselineGenes();
    std::vector<Individual> population;
    for (size_t ci = 0;
         ci < space.classes.size() &&
         out.stats.evaluations < budget;
         ++ci) {
        std::vector<std::pair<size_t, ParallelPlan>> sweep;
        for (size_t k = 0; k < space.candidates[ci].size(); ++k) {
            Individual ind{hwSeed, winners, -1.0};
            ind.genes[ci] = k;
            sweep.emplace_back(hwSeed, toPlan(ind));
        }
        trimToBudget(sweep, budget, out.stats);
        size_t swept = sweep.size();
        size_t first = out.evaluated.size();
        evaluateInto(space, engine, &contexts, std::move(sweep), out);
        double bestFit = -1.0;
        for (size_t i = first; i < first + swept; ++i) {
            double fit = fitnessOf(out.evaluated[i].report);
            Individual ind{hwSeed, winners, fit};
            ind.genes[ci] = i - first;
            population.push_back(ind);
            if (fit > bestFit) {
                bestFit = fit;
                winners[ci] = i - first;
            }
        }
    }

    // A genome's key: hw, then each gene in radix
    // candidates[ci].size() — exact, since every gene is below its radix.
    std::unordered_set<uint64_t> visited;
    auto genomeKey = [&space](const Individual &ind) {
        uint64_t key = ind.hw;
        for (size_t ci = 0; ci < ind.genes.size(); ++ci)
            key = key * space.candidates[ci].size() + ind.genes[ci];
        return key;
    };
    for (const Individual &ind : population)
        visited.insert(genomeKey(ind));

    // Evaluate a batch of genomes, skipping genomes already
    // visited this run and trimming to the remaining budget (the
    // trim assumes every point is fresh, so the budget is a hard
    // ceiling even before cache effects).
    auto evaluateGenomes = [&](std::vector<Individual> batch) {
        std::vector<Individual> fresh;
        for (Individual &ind : batch) {
            if (visited.insert(genomeKey(ind)).second)
                fresh.push_back(std::move(ind));
        }
        long room = budget - out.stats.evaluations;
        if (room <= 0)
            return;
        if (static_cast<long>(fresh.size()) > room)
            fresh.resize(static_cast<size_t>(room));
        std::vector<std::pair<size_t, ParallelPlan>> points;
        for (const Individual &ind : fresh)
            points.emplace_back(ind.hw, toPlan(ind));
        size_t first = out.evaluated.size();
        evaluateInto(space, engine, &contexts, std::move(points), out);
        for (size_t i = 0; i < fresh.size(); ++i) {
            fresh[i].fitness =
                fitnessOf(out.evaluated[first + i].report);
            population.push_back(std::move(fresh[i]));
        }
    };

    // Complete the initial population: the all-winners genome on
    // every hardware point, then random genomes for diversity.
    {
        std::vector<Individual> extra;
        for (size_t hw = 0; hw < space.models.size(); ++hw)
            extra.push_back(Individual{hw, winners, -1.0});
        while (extra.size() + population.size() < kPopulationSize) {
            Individual ind;
            ind.hw = drawIndex(rng, space.models.size());
            for (size_t ci = 0; ci < space.classes.size(); ++ci)
                ind.genes.push_back(
                    drawIndex(rng, space.candidates[ci].size()));
            extra.push_back(std::move(ind));
        }
        evaluateGenomes(std::move(extra));
    }

    auto fitter = [](const Individual &a, const Individual &b) {
        return a.fitness > b.fitness;
    };
    auto tournament = [&]() -> const Individual & {
        const Individual &a =
            population[drawIndex(rng, population.size())];
        const Individual &b =
            population[drawIndex(rng, population.size())];
        return a.fitness >= b.fitness ? a : b;
    };

    for (int gen = 0; gen < kMaxGenerations &&
         out.stats.evaluations < budget && !population.empty();
         ++gen) {
        // Keep selection pressure bounded: survivors are the
        // fittest kPopulationSize genomes seen so far.
        std::stable_sort(population.begin(), population.end(),
                         fitter);
        if (population.size() > kPopulationSize)
            population.resize(kPopulationSize);
        std::vector<Individual> children;
        for (size_t k = 0; k < kPopulationSize; ++k) {
            const Individual &pa = tournament();
            const Individual &pb = tournament();
            Individual child;
            // Crossover on layer-class assignments; the hardware
            // gene rides along from one parent.
            child.hw = drawUnit(rng) < 0.5 ? pa.hw : pb.hw;
            for (size_t ci = 0; ci < space.classes.size(); ++ci)
                child.genes.push_back(drawUnit(rng) < 0.5
                                          ? pa.genes[ci]
                                          : pb.genes[ci]);
            if (drawUnit(rng) < kMutationRate &&
                space.models.size() > 1) {
                child.hw = drawIndex(rng, space.models.size());
            }
            for (size_t ci = 0; ci < space.classes.size(); ++ci) {
                if (drawUnit(rng) < kMutationRate) {
                    child.genes[ci] = drawIndex(
                        rng, space.candidates[ci].size());
                }
            }
            children.push_back(std::move(child));
        }
        evaluateGenomes(std::move(children));
    }
    return out;
}

} // namespace

size_t
SearchSpace::planCount() const
{
    size_t count = 1;
    for (const std::vector<HierStrategy> &cands : candidates)
        count *= cands.size();
    return count;
}

void
SearchSpace::validate() const
{
    if (models.empty())
        fatal("SearchSpace: no hardware points");
    for (const PerfModel *model : models) {
        if (!model)
            fatal("SearchSpace: null PerfModel");
    }
    if (!desc || !task)
        fatal("SearchSpace: null model description or task");
    if (classes.size() != candidates.size())
        fatal("SearchSpace: classes/candidates size mismatch");
    for (const std::vector<HierStrategy> &cands : candidates) {
        if (cands.empty())
            fatal("SearchSpace: a layer class has no candidates");
    }
}

std::vector<ParallelPlan>
enumeratePlans(const SearchSpace &space)
{
    // Cartesian product over per-class candidates. Plans inherit the
    // production default of prefetch-enabled FSDP so searches never
    // rank below the baseline on a technicality. This enumeration
    // order is a compatibility contract: the golden explore() suites
    // snapshot it.
    std::vector<ParallelPlan> plans;
    plans.emplace_back();
    plans.back().fsdpPrefetch = true;
    for (size_t ci = 0; ci < space.classes.size(); ++ci) {
        std::vector<ParallelPlan> expanded;
        for (const ParallelPlan &base : plans) {
            for (HierStrategy hs : space.candidates[ci]) {
                ParallelPlan p = base;
                p.set(space.classes[ci], hs);
                expanded.push_back(std::move(p));
            }
        }
        plans = std::move(expanded);
    }
    if (space.explorePrefetch) {
        // Ablation variants with prefetching disabled (Fig. 9).
        size_t base_count = plans.size();
        for (size_t i = 0; i < base_count; ++i) {
            bool has_fsdp = false;
            for (const auto &hs : plans[i].byClass) {
                if (hs && (hs->intra == Strategy::FSDP ||
                           hs->inter == Strategy::FSDP)) {
                    has_fsdp = true;
                }
            }
            if (has_fsdp) {
                ParallelPlan p = plans[i];
                p.fsdpPrefetch = false;
                plans.push_back(std::move(p));
            }
        }
    }
    return plans;
}

const SearchCandidate *
bestCandidate(const std::vector<SearchCandidate> &candidates, size_t from,
              size_t to)
{
    const SearchCandidate *best = nullptr;
    to = std::min(to, candidates.size());
    for (size_t i = from; i < to; ++i) {
        const SearchCandidate &c = candidates[i];
        if (c.report.valid &&
            (!best || c.report.throughput() >
                 best->report.throughput())) {
            best = &c;
        }
    }
    return best;
}

SearchSpace
makeSearchSpace(std::vector<const PerfModel *> models,
                const ModelDesc &desc, const TaskSpec &task,
                bool explorePrefetch)
{
    SearchSpace space;
    space.models = std::move(models);
    space.desc = &desc;
    space.task = &task;
    space.explorePrefetch = explorePrefetch;
    for (LayerClass cls : {LayerClass::SparseEmbedding,
                           LayerClass::DenseEmbedding,
                           LayerClass::BaseDense, LayerClass::Transformer,
                           LayerClass::MoE}) {
        if (desc.graph.hasClass(cls)) {
            space.classes.push_back(cls);
            space.candidates.push_back(
                StrategyExplorer::candidates(cls));
        }
    }
    if (space.classes.empty())
        fatal("SearchSpace: model '" + desc.name + "' has no layers");
    space.validate();
    return space;
}

RunContexts::RunContexts(const SearchSpace &space)
    : space_(space), contexts_(space.models.size())
{}

RunContexts::~RunContexts() = default;

const EvalContext *
RunContexts::at(size_t hw)
{
    std::unique_ptr<EvalContext> &ctx = contexts_[hw];
    if (!ctx) {
        try {
            // Every point shares the first built context's layout.
            ctx = first_ ? std::make_unique<EvalContext>(
                               *space_.models[hw], *first_)
                         : std::make_unique<EvalContext>(
                               *space_.models[hw], *space_.desc,
                               *space_.task);
        } catch (...) {
            return nullptr;
        }
        if (!first_)
            first_ = ctx.get();
    }
    return ctx.get();
}

void
evaluateInto(const SearchSpace &space, EvalEngine &engine,
             RunContexts *contexts,
             std::vector<std::pair<size_t, ParallelPlan>> points,
             SearchOutcome &out)
{
    if (points.empty())
        return;
    std::vector<PlanRequest> requests;
    requests.reserve(points.size());
    for (auto &[hw, plan] : points) {
        PlanRequest req;
        req.model = space.models[hw];
        req.desc = space.desc;
        req.task = space.task;
        req.plan = std::move(plan);
        if (contexts)
            req.context = contexts->at(hw);
        requests.push_back(std::move(req));
    }
    EvalStats stats;
    std::vector<PerfReport> reports =
        engine.evaluateAll(requests, &stats);
    out.stats += stats;
    // Grow geometrically, with a first large batch sized exactly: an
    // exact reserve per batch would move every earlier candidate on
    // each of annealing's one-point batches.
    const size_t need = out.evaluated.size() + requests.size();
    if (need > out.evaluated.capacity())
        out.evaluated.reserve(std::max(need, 2 * out.evaluated.capacity()));
    for (size_t i = 0; i < requests.size(); ++i) {
        out.evaluated.push_back(SearchCandidate{
            points[i].first, std::move(requests[i].plan),
            std::move(reports[i])});
    }
}

namespace
{

/** The registry: every strategy runSearch() can dispatch to, in
 *  documentation order. */
struct RegisteredSearch
{
    const char *name;
    SearchOutcome (*run)(const SearchSpace &, EvalEngine &,
                         const SearchOptions &, RunContexts *);
};

const RegisteredSearch kSearches[] = {
    {"exhaustive", exhaustiveSearch},
    {"coordinate-descent", coordinateDescentSearch},
    {"annealing", annealingSearch},
    {"genetic", geneticSearch},
};

const RegisteredSearch &
findSearch(const std::string &name)
{
    for (const RegisteredSearch &search : kSearches) {
        if (name == search.name)
            return search;
    }
    std::string known;
    for (const std::string &n : searchStrategyNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown search strategy '" + name + "' (registered: " +
          known + ")");
}

} // namespace

const std::vector<std::string> &
searchStrategyNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const RegisteredSearch &search : kSearches)
            out.emplace_back(search.name);
        return out;
    }();
    return names;
}

void
checkSearchStrategy(const std::string &name)
{
    findSearch(name);
}

SearchOutcome
runSearch(const std::string &strategy, const SearchSpace &space,
          EvalEngine &engine, const SearchOptions &options,
          RunContexts *contexts)
{
    const RegisteredSearch &search = findSearch(strategy);
    space.validate();
    return search.run(space, engine, options, contexts);
}

} // namespace madmax
