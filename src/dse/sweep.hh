/**
 * @file
 * Hardware-scaling sweeps for the future-technologies study (Fig. 19):
 * scale one (or every) hardware capability by a factor, search the
 * base and every scaled cluster as the hardware points of one
 * ParetoEngine exploration, and report each best-plan speedup. Also
 * hosts the GPU-hour normalization helper of Figs. 1/16.
 */

#ifndef MADMAX_DSE_SWEEP_HH
#define MADMAX_DSE_SWEEP_HH

#include <string>
#include <vector>

#include "dse/strategy_explorer.hh"

namespace madmax
{

/** A scalable hardware capability. */
enum class HwAxis
{
    Compute,       ///< Peak FLOPS (all dtypes).
    HbmCapacity,
    HbmBandwidth,
    IntraBandwidth,
    InterBandwidth,
    All,           ///< Every capability concurrently.
};

std::string toString(HwAxis axis);

/** All individual axes plus the concurrent "All" case. */
const std::vector<HwAxis> &allHwAxes();

/** Scale @p axis of @p cluster by @p factor. */
ClusterSpec scaleAxis(const ClusterSpec &cluster, HwAxis axis,
                      double factor);

/** One point of the scaling study. */
struct ScalingResult
{
    HwAxis axis = HwAxis::All;
    double factor = 1.0;
    /** Best plan on the scaled cluster (stats left empty: the study
     *  is one search, see hardwareScalingStudy). */
    ExplorationResult best;
    double speedup = 0.0;     ///< Best-vs-baseline-cluster-best ratio.
};

/**
 * For each axis, scale @p cluster by @p factor and report the best
 * plan's throughput relative to the unscaled cluster's best plan. The
 * unscaled cluster and every scaled one are the hardware points of
 * one exhaustive ParetoEngine exploration (no baselines); each
 * result's plan is that point's bestPerHw entry, the same plan
 * StrategyExplorer::best() picks on the point alone.
 *
 * @param engine Optional shared EvalEngine: the search runs through
 *        it, pooling worker threads, and repeated calls with the same
 *        factor/axes are memoized. (Axes do not share cache entries
 *        with each other — a scaled cluster is a different
 *        fingerprint, even on axes like HbmCapacity that rarely
 *        change the timing.) Null runs a private serial engine.
 * @throws ConfigError if no plan fits on some point, as best() does.
 */
std::vector<ScalingResult>
hardwareScalingStudy(const ClusterSpec &cluster, const ModelDesc &desc,
                     const TaskSpec &task, double factor,
                     const std::vector<HwAxis> &axes = allHwAxes(),
                     EvalEngine *engine = nullptr);

/**
 * Aggregate device-hours normalized to A100 peak FLOPS (Fig. 16's
 * resource metric): raw device-hours x (device peak / A100 peak).
 */
double normalizedGpuHours(const PerfReport &report,
                          const ClusterSpec &cluster, double samples,
                          double a100_peak_flops);

} // namespace madmax

#endif // MADMAX_DSE_SWEEP_HH
