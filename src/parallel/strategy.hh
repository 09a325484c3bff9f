/**
 * @file
 * Parallelization strategies (§II-B): what is replicated vs. sharded
 * at each level of the cluster hierarchy, and how strategies compose
 * into a per-layer-class plan.
 *
 * Notation follows the paper: "(TP, DDP)" applies TP within a node
 * and DDP across nodes; a one-element tuple like "(FSDP)" applies the
 * strategy globally across all devices.
 */

#ifndef MADMAX_PARALLEL_STRATEGY_HH
#define MADMAX_PARALLEL_STRATEGY_HH

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "model/layer.hh"

namespace madmax
{

/** Single-level strategy. */
enum class Strategy
{
    None,  ///< Level unused (one-level plans set inter = None).
    DDP,   ///< Replicate parameters; AllReduce weight gradients.
    FSDP,  ///< Shard parameters; AllGather before use, ReduceScatter grads.
    TP,    ///< Shard parameters; AllReduce partial-sum activations.
    MP,    ///< Model-parallel sharding (embedding tables / MoE experts).
};

std::string toString(Strategy s);

/** True if @p s shards parameter storage at its level. */
bool shardsParams(Strategy s);

/** True if @p s splits the batch (data parallelism) at its level. */
bool splitsData(Strategy s);

/**
 * A hierarchical (intra-node, inter-node) strategy for one layer
 * class. inter == None means `intra` is applied globally across all
 * devices ("(TP)" in paper notation).
 */
struct HierStrategy
{
    Strategy intra = Strategy::None;
    Strategy inter = Strategy::None;

    constexpr HierStrategy() = default;
    constexpr HierStrategy(Strategy i) : intra(i) {}
    constexpr HierStrategy(Strategy i, Strategy o) : intra(i), inter(o) {}

    bool isGlobal() const { return inter == Strategy::None; }
    bool operator==(const HierStrategy &o) const
    {
        return intra == o.intra && inter == o.inter;
    }
    bool operator!=(const HierStrategy &o) const { return !(*this == o); }

    /** "(TP, DDP)" / "(FSDP)" per paper notation. */
    std::string toString() const;
};

/**
 * A full parallelization plan: one HierStrategy per layer class
 * present in the model, plus collective-level options.
 */
struct ParallelPlan
{
    /** Strategy per layer class, indexed by LayerClass; empty for a
     *  class the plan does not list. */
    std::array<std::optional<HierStrategy>, kNumLayerClasses> byClass;

    /**
     * Overlap FSDP AllGathers with preceding-layer compute (the
     * optimized prefetching implementation of Fig. 9).
     */
    bool fsdpPrefetch = false;

    /**
     * Strategy for @p cls; falls back to the defaults the paper
     * assumes when a class is not explicitly planned (sharding for
     * sparse embeddings, FSDP for everything else).
     */
    HierStrategy strategyFor(LayerClass cls) const;

    ParallelPlan &set(LayerClass cls, HierStrategy hs);

    /**
     * The paper's baseline: FSDP for all dense classes (wide adoption,
     * guarantees feasibility via minimal footprint), MP sharding for
     * sparse embedding tables.
     */
    static ParallelPlan fsdpBaseline();

    /** Plan name like "dense=(TP, DDP) emb=(MP)". */
    std::string toString() const;

    /** Same strategy per listed class and same prefetch flag — hence
     *  the same toString(). */
    bool operator==(const ParallelPlan &o) const
    {
        return byClass == o.byClass && fsdpPrefetch == o.fsdpPrefetch;
    }
};

} // namespace madmax

#endif // MADMAX_PARALLEL_STRATEGY_HH
