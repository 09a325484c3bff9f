#include "dse/pareto_engine.hh"

#include <algorithm>
#include <optional>

#include "dse/pareto.hh"
#include "hw/hw_zoo.hh"
#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

namespace
{

/** Rental $ per A100-equivalent device-hour (on-demand ballpark). */
constexpr double kDollarsPerA100Hour = 4.1;

JsonValue
candidateJson(const ParetoCandidate &c,
              const std::vector<HardwarePoint> &hardware)
{
    JsonValue out;
    out.set("hardware", hardware[c.hwIndex].name);
    out.set("plan", c.plan.toString());
    JsonValue obj;
    obj.set("throughput", c.objectives.throughput);
    obj.set("perf_per_tco", c.objectives.perfPerTco);
    obj.set("mem_headroom_bytes", c.objectives.memHeadroomBytes);
    out.set("objectives", std::move(obj));
    out.set("report", toJson(c.report));
    return out;
}

/**
 * The non-dominated subset of the valid @p candidates under the
 * objective vectors @p objectivesOf returns, ranked by the first
 * objective, descending; ties keep visit order.
 */
template <typename Candidate, typename ObjectivesOf>
std::vector<Candidate>
validFrontier(const std::vector<Candidate> &candidates,
              ObjectivesOf objectivesOf)
{
    std::vector<ParetoPointNd> scored;
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].report.valid)
            scored.push_back(ParetoPointNd{objectivesOf(candidates[i]), i});
    }
    std::vector<size_t> frontier = paretoFrontierNd(scored);
    std::stable_sort(frontier.begin(), frontier.end(),
                     [&](size_t a, size_t b) {
                         return scored[a].objectives[0] >
                             scored[b].objectives[0];
                     });
    std::vector<Candidate> points;
    points.reserve(frontier.size());
    for (size_t idx : frontier)
        points.push_back(candidates[scored[idx].tag]);
    return points;
}

} // namespace

ParetoObjectives
scoreObjectives(const PerfReport &report, const HardwarePoint &hw)
{
    ParetoObjectives obj;
    obj.throughput = report.valid ? report.throughput() : 0.0;
    double rate = hw.cluster.numDevices() * hw.a100PeakRatio *
        kDollarsPerA100Hour;
    obj.perfPerTco = rate > 0.0 ? obj.throughput / rate : 0.0;
    obj.memHeadroomBytes =
        report.memory.usableCapacity - report.memory.total();
    return obj;
}

ParetoEngine::ParetoEngine(std::vector<HardwarePoint> hardware,
                           EvalEngine *engine)
    : hw_(std::move(hardware)), shared_(engine)
{
    if (hw_.empty())
        fatal("ParetoEngine: empty hardware catalog");
    models_.reserve(hw_.size());
    for (HardwarePoint &point : hw_) {
        if (point.name.empty())
            point.name = point.cluster.name;
        // PerfModel construction validates the cluster spec.
        models_.emplace_back(point.cluster);
    }
    if (!shared_)
        owned_ = std::make_unique<EvalEngine>();
}

EvalEngine &
ParetoEngine::engine() const
{
    return shared_ ? *shared_ : *owned_;
}

ParetoFrontier
ParetoEngine::explore(const ModelDesc &desc, const TaskSpec &task,
                      const ParetoOptions &options) const
{
    // A bad name must not cost a baseline sweep: resolve it first.
    checkSearchStrategy(options.strategy);
    ParetoFrontier out;
    out.strategy = options.strategy;

    std::vector<const PerfModel *> modelPtrs;
    modelPtrs.reserve(models_.size());
    for (const PerfModel &model : models_)
        modelPtrs.push_back(&model);
    SearchSpace space = makeSearchSpace(modelPtrs, desc, task);
    // One context per hardware point, shared by the baseline sweep and
    // the search.
    RunContexts contexts(space);

    // The default-mapping (FSDP) point on every hardware point: the
    // normalization frontier of Figs. 1/16 and the guided searches'
    // warm start. An explicit budget is a hard ceiling over the whole
    // exploration, so a budget smaller than the catalog trims the
    // baseline sweep itself (only the first points get evaluated).
    if (options.includeBaselines) {
        size_t limit = models_.size();
        if (options.search.maxEvaluations > 0) {
            limit = std::min(
                limit,
                static_cast<size_t>(options.search.maxEvaluations));
        }
        std::vector<std::pair<size_t, ParallelPlan>> points;
        for (size_t hw = 0; hw < limit; ++hw)
            points.emplace_back(hw, ParallelPlan::fsdpBaseline());
        SearchOutcome baseline;
        evaluateInto(space, engine(), &contexts, std::move(points),
                     baseline);
        out.stats += baseline.stats;
        // The baseline sweep doubles as the guided searches' warm
        // start: they pick their starting hardware point from it
        // instead of spending budget re-probing every point.
        space.warmStart = std::move(baseline.evaluated);
    }

    // The budget covers the whole exploration: what the baselines
    // spent is no longer available to the guided search (-1 tells
    // the strategy its budget is already gone — 0 would mean "auto").
    SearchOptions searchOpts = options.search;
    if (searchOpts.maxEvaluations > 0) {
        long remaining =
            searchOpts.maxEvaluations - out.stats.evaluations;
        searchOpts.maxEvaluations = remaining > 0 ? remaining : -1;
    }
    SearchOutcome outcome = runSearch(options.strategy, space, engine(),
                                      searchOpts, &contexts);
    out.stats += outcome.stats;

    // Fold baselines and search visits into one scored candidate
    // list, in visit order.
    auto toCandidate = [](SearchCandidate c) {
        ParetoCandidate pc;
        pc.hwIndex = c.hwIndex;
        pc.plan = std::move(c.plan);
        pc.report = std::move(c.report);
        return pc;
    };
    for (const SearchCandidate &c : space.warmStart)
        out.baselines.push_back(toCandidate(c));
    out.candidates = out.baselines;
    out.candidates.reserve(out.candidates.size() +
                           outcome.evaluated.size());
    for (SearchCandidate &c : outcome.evaluated)
        out.candidates.push_back(toCandidate(std::move(c)));
    for (ParetoCandidate &c : out.candidates) {
        if (c.report.valid)
            c.objectives =
                scoreObjectives(c.report, hw_[c.hwIndex]);
    }

    // Throughput-best valid candidate per hardware point (first visit
    // wins ties, so exhaustive matches StrategyExplorer::best()).
    std::vector<const ParetoCandidate *> best(hw_.size(), nullptr);
    for (const ParetoCandidate &c : out.candidates) {
        if (!c.report.valid)
            continue;
        const ParetoCandidate *&slot = best[c.hwIndex];
        if (!slot || c.objectives.throughput >
                slot->objectives.throughput) {
            slot = &c;
        }
    }
    for (const ParetoCandidate *c : best) {
        if (c)
            out.bestPerHw.push_back(*c);
    }

    // The multi-objective frontier over every valid visit.
    out.points =
        validFrontier(out.candidates, [](const ParetoCandidate &c) {
            return std::vector<double>{c.objectives.throughput,
                                       c.objectives.perfPerTco,
                                       c.objectives.memHeadroomBytes};
        });
    return out;
}

InferencePlacementFrontier
exploreInferencePlacements(const ModelDesc &desc,
                           const InferenceWorkload &workload,
                           const ClusterSpec &cluster,
                           const CostModelOptions &,
                           EvalEngine *engine)
{
    cluster.validate();
    workload.validate(desc);

    InferencePlacementFrontier out;

    // The evaluable islands: each device group projected to a
    // homogeneous cluster, or the cluster itself when homogeneous.
    std::vector<ClusterSpec> islands;
    if (cluster.isHeterogeneous()) {
        for (size_t i = 0; i < cluster.groups.size(); ++i) {
            islands.push_back(cluster.groupCluster(static_cast<int>(i)));
            out.islands.push_back(cluster.groups[i].name);
        }
    } else {
        islands.push_back(cluster);
        out.islands.push_back(cluster.name);
    }

    // Resolve placement pins to island indices. An unknown name is a
    // config error (typo'd group), not an empty search.
    auto resolvePin = [&](const std::string &name,
                          const char *phase) -> int {
        if (name.empty())
            return -1;
        for (size_t i = 0; i < out.islands.size(); ++i) {
            if (out.islands[i] == name)
                return static_cast<int>(i);
        }
        std::string known;
        for (const std::string &island : out.islands)
            known += (known.empty() ? "\"" : ", \"") + island + "\"";
        fatal(strfmt("inference workload pins %s to unknown device "
                     "group \"%s\"; cluster \"%s\" defines: %s",
                     phase, name.c_str(), cluster.name.c_str(),
                     known.c_str()));
    };
    const int pin_p = resolvePin(workload.prefillGroup, "prefill");
    const int pin_d = resolvePin(workload.decodeGroup, "decode");

    // Whole-fleet rental rate: every placement is priced against all
    // islands, used or not (see InferencePlacementObjectives).
    double fleet_rate = 0.0;
    for (const ClusterSpec &island : islands) {
        fleet_rate += island.numDevices() *
            makeHardwarePoint(island).a100PeakRatio * kDollarsPerA100Hour;
    }

    // One exhaustive sweep per phase over the islands that run it (only
    // the pinned one under a pin). The inference plan space is small
    // enough that enumeration is cheaper than any guided strategy's
    // bookkeeping. Exhaustive output is island-major in enumeration
    // order with invalid plans kept, so each island owns one block of
    // planCount() entries and entry k of every block is the same plan.
    const std::vector<PerfModel> models(islands.begin(), islands.end());
    auto phaseModels = [&](int pin) {
        std::vector<const PerfModel *> out_models;
        for (size_t i = 0; i < models.size(); ++i) {
            if (pin < 0 || i == static_cast<size_t>(pin))
                out_models.push_back(&models[i]);
        }
        return out_models;
    };
    const TaskSpec prefill_task =
        InferenceModel::prefillTask(desc, workload);
    const TaskSpec decode_task =
        InferenceModel::decodeTask(desc, workload);
    const SearchSpace prefill_space =
        makeSearchSpace(phaseModels(pin_p), desc, prefill_task);
    const SearchSpace decode_space =
        makeSearchSpace(phaseModels(pin_d), desc, decode_task);
    std::optional<EvalEngine> serial;
    EvalEngine &eng = engine ? *engine : serial.emplace();
    const SearchOutcome prefill =
        runSearch("exhaustive", prefill_space, eng);
    const SearchOutcome decode = runSearch("exhaustive", decode_space, eng);
    out.stats += prefill.stats;
    out.stats += decode.stats;

    const size_t plans = prefill_space.planCount();
    auto blockOf = [&](int pin, size_t island) {
        return (pin < 0 ? island : 0) * plans;
    };

    const InferenceModel inference;

    // Enumerate placements. Colocated (p == d) deployments run both
    // phases with ONE plan — the weights cannot be resharded between
    // a prompt pass and the next token step — chosen to maximize the
    // composed request rate. Disaggregated deployments pick each
    // phase's throughput-best plan independently.
    for (size_t p = 0; p < islands.size(); ++p) {
        if (pin_p >= 0 && p != static_cast<size_t>(pin_p))
            continue;
        const size_t bp = blockOf(pin_p, p);
        for (size_t d = 0; d < islands.size(); ++d) {
            if (pin_d >= 0 && d != static_cast<size_t>(pin_d))
                continue;
            const size_t bd = blockOf(pin_d, d);
            InferencePlacementCandidate cand;
            cand.prefillIsland = static_cast<int>(p);
            cand.decodeIsland = static_cast<int>(d);

            if (p == d) {
                // Compose per plan: harmonic request rate over the
                // plans valid for BOTH phases on this island. Ties go
                // to the higher prefill throughput, then to the
                // earlier plan.
                const SearchCandidate *best = nullptr;
                double best_rate = 0.0;
                for (size_t k = 0; k < plans; ++k) {
                    const SearchCandidate &pr = prefill.evaluated[bp + k];
                    const SearchCandidate &dr = decode.evaluated[bd + k];
                    if (!pr.report.valid || !dr.report.valid)
                        continue;
                    const double rate = 1.0 /
                        (pr.report.iterationTime +
                         dr.report.iterationTime *
                             static_cast<double>(workload.generateTokens));
                    if (rate > best_rate ||
                        (best && rate == best_rate &&
                         pr.report.throughput() >
                             best->report.throughput())) {
                        best_rate = rate;
                        best = &pr;
                    }
                }
                if (!best)
                    continue; // No plan serves both phases here.
                cand.prefillPlan = best->plan;
                cand.decodePlan = best->plan;
            } else {
                const SearchCandidate *best_p =
                    bestCandidate(prefill.evaluated, bp, bp + plans);
                const SearchCandidate *best_d =
                    bestCandidate(decode.evaluated, bd, bd + plans);
                if (!best_p || !best_d)
                    continue; // An island cannot run its phase.
                cand.prefillPlan = best_p->plan;
                cand.decodePlan = best_d->plan;
            }

            cand.report = inference.evaluate(
                desc, workload, islands[p], cand.prefillPlan, islands[d],
                cand.decodePlan, cluster.name);
            if (cand.report.valid) {
                cand.objectives.tokensPerSecond =
                    cand.report.tokensPerSecond;
                cand.objectives.perfPerTco = fleet_rate > 0.0
                    ? cand.report.tokensPerSecond / fleet_rate
                    : 0.0;
                cand.objectives.maxConcurrentSequences =
                    cand.report.maxConcurrentSequences;
            }
            out.candidates.push_back(std::move(cand));
        }
    }

    // The multi-objective frontier over the valid placements.
    out.points = validFrontier(
        out.candidates, [](const InferencePlacementCandidate &c) {
            return std::vector<double>{
                c.objectives.tokensPerSecond, c.objectives.perfPerTco,
                c.objectives.maxConcurrentSequences};
        });
    return out;
}

JsonValue
toJson(const InferencePlacementFrontier &frontier)
{
    JsonValue islandArr(JsonValue::Array{});
    for (const std::string &name : frontier.islands)
        islandArr.append(JsonValue(name));

    auto placementJson = [&](const InferencePlacementCandidate &c) {
        JsonValue out;
        out.set("prefill_island",
                frontier.islands[static_cast<size_t>(c.prefillIsland)]);
        out.set("decode_island",
                frontier.islands[static_cast<size_t>(c.decodeIsland)]);
        out.set("prefill_plan", c.prefillPlan.toString());
        out.set("decode_plan", c.decodePlan.toString());
        JsonValue obj;
        obj.set("tokens_per_sec", c.objectives.tokensPerSecond);
        obj.set("perf_per_tco", c.objectives.perfPerTco);
        obj.set("max_concurrent_sequences",
                c.objectives.maxConcurrentSequences);
        out.set("objectives", std::move(obj));
        out.set("report", toJson(c.report));
        return out;
    };
    auto listJson =
        [&](const std::vector<InferencePlacementCandidate> &list) {
            JsonValue arr(JsonValue::Array{});
            for (const InferencePlacementCandidate &c : list)
                arr.append(placementJson(c));
            return arr;
        };

    JsonValue out;
    out.set("islands", std::move(islandArr));
    out.set("frontier", listJson(frontier.points));
    out.set("placements", listJson(frontier.candidates));
    out.set("search", toJson(frontier.stats));
    return out;
}

std::vector<HardwarePoint>
cloudHardwareCatalog(int num_nodes)
{
    std::vector<HardwarePoint> out;
    for (const hw_zoo::CloudInstance &inst :
         hw_zoo::cloudInstances(num_nodes)) {
        out.push_back(
            HardwarePoint{inst.name, inst.cluster, inst.a100PeakRatio});
    }
    return out;
}

HardwarePoint
makeHardwarePoint(const ClusterSpec &cluster)
{
    HardwarePoint point;
    point.name = cluster.name;
    point.cluster = cluster;
    double a100_peak = hw_zoo::a100_40().peakFlopsTensor16;
    point.a100PeakRatio = cluster.device.peakFlopsTensor16 > 0.0
        ? cluster.device.peakFlopsTensor16 / a100_peak
        : 1.0;
    return point;
}

std::vector<HardwarePoint>
nodeCountSweep(const ClusterSpec &cluster,
               const std::vector<int> &node_counts)
{
    if (node_counts.empty())
        fatal("nodeCountSweep: empty node-count list");
    const double ratio = makeHardwarePoint(cluster).a100PeakRatio;
    std::vector<HardwarePoint> out;
    out.reserve(node_counts.size());
    for (int nodes : node_counts) {
        if (nodes <= 0)
            fatal("nodeCountSweep: node counts must be positive");
        HardwarePoint point;
        point.cluster = cluster.withNumNodes(nodes);
        point.name = strfmt("%s-%dn", cluster.name.c_str(), nodes);
        point.a100PeakRatio = ratio;
        out.push_back(std::move(point));
    }
    return out;
}

JsonValue
toJson(const ParetoFrontier &frontier,
       const std::vector<HardwarePoint> &hardware)
{
    JsonValue hwArr;
    for (const HardwarePoint &point : hardware) {
        JsonValue entry;
        entry.set("name", point.name);
        entry.set("devices",
                  static_cast<long>(point.cluster.numDevices()));
        entry.set("nodes", static_cast<long>(point.cluster.numNodes));
        entry.set("a100_peak_ratio", point.a100PeakRatio);
        hwArr.append(std::move(entry));
    }

    auto listJson = [&](const std::vector<ParetoCandidate> &list) {
        JsonValue arr(JsonValue::Array{});
        for (const ParetoCandidate &c : list)
            arr.append(candidateJson(c, hardware));
        return arr;
    };

    JsonValue out;
    out.set("strategy", frontier.strategy);
    out.set("hardware", std::move(hwArr));
    out.set("frontier", listJson(frontier.points));
    out.set("best_per_hardware", listJson(frontier.bestPerHw));
    out.set("baselines", listJson(frontier.baselines));
    out.set("evaluated_points",
            static_cast<long>(frontier.candidates.size()));
    out.set("search", toJson(frontier.stats));
    return out;
}

} // namespace madmax
