/**
 * @file
 * Regenerates Fig. 1: the resource-performance pareto frontier of
 * DLRM training on public-cloud instances. The default FSDP mapping
 * defines the baseline frontier (blue); MAD-Max-identified mappings
 * improve on it (green).
 *
 * Runs on the multi-objective ParetoEngine (src/dse/pareto_engine.hh)
 * over the cloud hardware catalog with the exhaustive strategy, which
 * reproduces the historical per-instance explorer sweep byte for
 * byte. `madmax pareto --strategy` runs the same search guided.
 */

#include <map>
#include <set>

#include "paper.hh"
#include "dse/pareto.hh"
#include "dse/pareto_engine.hh"
#include "dse/sweep.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

void
paper::fig01(std::ostream &os)
{
    bench::banner(os,
                  "Fig. 1: resource-performance pareto frontier "
                  "(DLRM on cloud instances)",
                  "MAD-Max improves on the default-mapping frontier");

    const ModelDesc model = model_zoo::dlrmA();
    const TaskSpec task = TaskSpec::preTraining();
    const double samples = 1e9;
    const double a100_peak = hw_zoo::a100_40().peakFlopsTensor16;

    ParetoEngine pareto(cloudHardwareCatalog(16));
    ParetoFrontier frontier = pareto.explore(model, task);

    std::map<size_t, const ParetoCandidate *> best_by_hw;
    for (const ParetoCandidate &c : frontier.bestPerHw)
        best_by_hw[c.hwIndex] = &c;

    struct Point
    {
        std::string label;
        double hours;    // Aggregate GPU-hours / 1B samples (A100-norm).
        double elapsed;  // Elapsed hours / 1B samples.
        bool tuned;
    };
    std::vector<Point> pts;

    for (size_t hw = 0; hw < pareto.hardware().size(); ++hw) {
        const HardwarePoint &inst = pareto.hardware()[hw];
        const PerfReport &fsdp = frontier.baselines[hw].report;
        if (fsdp.valid) {
            pts.push_back(Point{
                inst.name + " [FSDP]",
                normalizedGpuHours(fsdp, inst.cluster, samples,
                                   a100_peak),
                samples / fsdp.throughput() / 3600.0, false});
        }
        auto it = best_by_hw.find(hw);
        if (it != best_by_hw.end()) {
            const PerfReport &best = it->second->report;
            pts.push_back(Point{
                inst.name + " [MAD-Max]",
                normalizedGpuHours(best, inst.cluster, samples,
                                   a100_peak),
                samples / best.throughput() / 3600.0, true});
        }
        // No valid plan on this instance fleet: skip it (matching the
        // historical explorer sweep).
    }

    AsciiTable table({"configuration", "agg GPU-hrs/1B (A100-norm)",
                      "elapsed hrs/1B", "frontier"});
    std::vector<ParetoPoint> fsdp_pts, tuned_pts;
    for (size_t i = 0; i < pts.size(); ++i) {
        auto &bucket = pts[i].tuned ? tuned_pts : fsdp_pts;
        bucket.push_back(
            ParetoPoint{pts[i].hours, 1.0 / pts[i].elapsed, i});
    }
    std::set<size_t> on_frontier;
    for (size_t idx : paretoFrontier(fsdp_pts))
        on_frontier.insert(fsdp_pts[idx].tag);
    for (size_t idx : paretoFrontier(tuned_pts))
        on_frontier.insert(tuned_pts[idx].tag);

    for (size_t i = 0; i < pts.size(); ++i) {
        std::string frontier_tag;
        if (on_frontier.count(i)) {
            frontier_tag = pts[i].tuned ? "MAD-Max frontier"
                                        : "default frontier";
        }
        table.addRow({pts[i].label, strfmt("%.0f", pts[i].hours),
                      strfmt("%.2f", pts[i].elapsed), frontier_tag});
    }
    table.print(os);
}
