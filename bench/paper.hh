/**
 * @file
 * The paper reproduction: one function per figure and table of the
 * paper's evaluation (plus the modeling ablations), each printing its
 * rows and series to a stream under a bench::banner(). `madmax_paper
 * [name...]` prints them by name (all of them, in kFigures order, when
 * given none), and tests/bench/test_paper_outputs.cc pins each output
 * byte for byte against tests/golden/paper/<name>.txt.
 */

#ifndef MADMAX_BENCH_PAPER_HH
#define MADMAX_BENCH_PAPER_HH

#include <ostream>

#include "bench_util.hh"

namespace madmax::paper
{

void fig01(std::ostream &os);
void fig03(std::ostream &os);
void fig04(std::ostream &os);
void fig06(std::ostream &os);
void fig07(std::ostream &os);
void fig08(std::ostream &os);
void fig09(std::ostream &os);
void fig10(std::ostream &os);
void fig11(std::ostream &os);
void fig12(std::ostream &os);
void fig13(std::ostream &os);
void fig14(std::ostream &os);
void fig15(std::ostream &os);
void fig16(std::ostream &os);
void fig17(std::ostream &os);
void fig18(std::ostream &os);
void fig19(std::ostream &os);
void fig20(std::ostream &os);
void table1(std::ostream &os);
void table2(std::ostream &os);
void ablations(std::ostream &os);

/** A printable figure; `name` is its source file's stem. */
struct Figure
{
    const char *name;
    void (*print)(std::ostream &os);
};

/** Every figure, in the order `madmax_paper` prints them. */
inline constexpr Figure kFigures[] = {
    {"fig01_pareto_frontier", fig01},
    {"fig03_model_characterization", fig03},
    {"fig04_fleet_characterization", fig04},
    {"fig06_sample_streams", fig06},
    {"fig07_dlrm_validation", fig07},
    {"fig08_vit_validation", fig08},
    {"fig09_fsdp_prefetch", fig09},
    {"fig10_pretraining_throughput", fig10},
    {"fig11_dlrm_a_strategies", fig11},
    {"fig12_dlrm_variants", fig12},
    {"fig13_pareto_variants", fig13},
    {"fig14_task_diversity", fig14},
    {"fig15_context_length", fig15},
    {"fig16_cloud_instances", fig16},
    {"fig17_gpu_generations", fig17},
    {"fig18_commodity_hw", fig18},
    {"fig19_future_scaling", fig19},
    {"fig20_breakdowns", fig20},
    {"table1_validation", table1},
    {"table2_model_suite", table2},
    {"ablations", ablations},
};

} // namespace madmax::paper

#endif // MADMAX_BENCH_PAPER_HH
