#include "fleet/fleet_sim.hh"

#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/logging.hh"

namespace madmax
{

void
FleetSimulator::addJob(FleetJob job)
{
    if (job.weight <= 0.0)
        fatal("FleetSimulator: job weight must be positive");
    jobs_.push_back(std::move(job));
}

FleetReport
FleetSimulator::run(EvalEngine *engine) const
{
    if (jobs_.empty())
        fatal("FleetSimulator: no jobs added");

    std::unique_ptr<EvalEngine> owned;
    if (!engine) {
        owned = std::make_unique<EvalEngine>();
        engine = owned.get();
    }

    // One cluster-bound model per job, evaluated as a single engine
    // batch.
    std::vector<PerfModel> models;
    models.reserve(jobs_.size());
    std::vector<PlanRequest> requests;
    requests.reserve(jobs_.size());
    for (const FleetJob &job : jobs_)
        models.emplace_back(job.cluster);
    for (size_t i = 0; i < jobs_.size(); ++i) {
        PlanRequest req;
        req.model = &models[i];
        req.desc = &jobs_[i].model;
        req.task = &jobs_[i].task;
        req.plan = jobs_[i].plan;
        requests.push_back(std::move(req));
    }
    EvalStats stats;
    std::vector<PerfReport> reports = engine->evaluateAll(requests,
                                                          &stats);

    struct Acc
    {
        double weight = 0.0;
        double compute = 0.0;
        double exposed = 0.0;
        double memcpy = 0.0;
        double idle = 0.0;
        double commTotal = 0.0;
        double commOverlapped = 0.0;
        std::map<EventCategory, double> collectives;
    };
    std::map<std::string, Acc> by_family;
    Acc overall;

    for (size_t job_idx = 0; job_idx < jobs_.size(); ++job_idx) {
        const FleetJob &job = jobs_[job_idx];
        const PerfReport &r = reports[job_idx];
        if (!r.valid) {
            warn("fleet job '" + job.model.name +
                 "' does not fit memory; skipping");
            continue;
        }

        // Normalize the iteration into cycle-category fractions, then
        // append the memcpy/idle overheads the iteration model
        // excludes. Exposed comm is capped at the wall-clock room
        // left by compute: concurrently-exposed collectives on
        // different channels would otherwise double-count cycles.
        double span = r.iterationTime;
        double compute = r.computeTime / span;
        double exposed =
            std::min(r.exposedCommTime / span, 1.0 - compute);
        double gaps = std::max(0.0, 1.0 - compute - exposed);
        double denom = 1.0 + job.memcpyFraction + job.idleFraction;

        auto fold = [&](Acc &acc) {
            acc.weight += job.weight;
            acc.compute += job.weight * compute / denom;
            acc.exposed += job.weight * exposed / denom;
            acc.memcpy += job.weight * job.memcpyFraction / denom;
            acc.idle +=
                job.weight * (gaps + job.idleFraction) / denom;
            acc.commTotal += job.weight * r.commTime;
            acc.commOverlapped +=
                job.weight * (r.commTime - r.exposedCommTime);
            for (const auto &[cat, secs] : r.serializedBreakdown) {
                switch (cat) {
                  case EventCategory::AllReduce:
                  case EventCategory::AllGather:
                  case EventCategory::ReduceScatter:
                  case EventCategory::All2All:
                    acc.collectives[cat] += job.weight * secs;
                    break;
                  default:
                    break;
                }
            }
        };
        fold(by_family[job.family]);
        fold(overall);
    }

    if (overall.weight <= 0.0)
        fatal("FleetSimulator: no job fit in memory");

    auto to_breakdown = [](const Acc &acc) {
        CycleBreakdown b;
        if (acc.weight <= 0.0)
            return b;
        b.compute = acc.compute / acc.weight;
        b.exposedComm = acc.exposed / acc.weight;
        b.exposedMemcpy = acc.memcpy / acc.weight;
        b.idle = acc.idle / acc.weight;
        return b;
    };

    FleetReport report;
    report.stats = stats;
    report.overall = to_breakdown(overall);
    for (const auto &[family, acc] : by_family) {
        report.byFamily[family] = to_breakdown(acc);
        report.overlapByFamily[family] =
            acc.commTotal > 0.0 ? acc.commOverlapped / acc.commTotal : 0.0;
        double total = 0.0;
        for (const auto &[cat, secs] : acc.collectives)
            total += secs;
        if (total > 0.0) {
            for (const auto &[cat, secs] : acc.collectives) {
                report.collectiveMixByFamily[family][cat] = secs / total;
            }
        }
    }
    return report;
}

FleetSimulator
FleetSimulator::representativeFleet()
{
    FleetSimulator fleet;
    const ClusterSpec zion = hw_zoo::dlrmTrainingSystem();
    const ClusterSpec llm_sys = hw_zoo::llmTrainingSystem();

    // DLRM jobs: sharded embeddings, hierarchically data-parallel
    // dense layers (the deployed ZionEX configuration).
    ParallelPlan dlrm_plan;
    dlrm_plan.set(LayerClass::SparseEmbedding,
                  HierStrategy{Strategy::MP});
    dlrm_plan.set(LayerClass::BaseDense,
                  HierStrategy{Strategy::TP, Strategy::DDP});
    dlrm_plan.set(LayerClass::Transformer,
                  HierStrategy{Strategy::TP, Strategy::DDP});
    dlrm_plan.set(LayerClass::MoE, HierStrategy{Strategy::MP});

    fleet.addJob(FleetJob{"DLRM", model_zoo::dlrmA(),
                          TaskSpec::preTraining(), dlrm_plan, zion, 3.0,
                          0.05, 0.10});
    fleet.addJob(FleetJob{"DLRM", model_zoo::dlrmB(),
                          TaskSpec::preTraining(), dlrm_plan, zion, 2.0,
                          0.05, 0.10});
    fleet.addJob(FleetJob{"DLRM", model_zoo::dlrmATransformer(),
                          TaskSpec::preTraining(), dlrm_plan, zion, 1.0,
                          0.05, 0.10});

    // LLM jobs: FSDP with prefetch (the production LLaMA recipe).
    ParallelPlan llm_plan = ParallelPlan::fsdpBaseline();
    llm_plan.fsdpPrefetch = true;
    fleet.addJob(FleetJob{"LLM", model_zoo::llama65b(),
                          TaskSpec::preTraining(), llm_plan, llm_sys, 3.0,
                          0.02, 0.06});
    fleet.addJob(FleetJob{"LLM", model_zoo::gpt3(),
                          TaskSpec::preTraining(), llm_plan, llm_sys, 2.0,
                          0.02, 0.06});
    fleet.addJob(FleetJob{"LLM", model_zoo::llama2_70b(),
                          TaskSpec::preTraining(), llm_plan, llm_sys, 1.0,
                          0.02, 0.06});
    return fleet;
}

} // namespace madmax
