/**
 * @file
 * Communication planner: maps (layer, hierarchical strategy, task) to
 * the collective calls each training/inference iteration needs, with
 * the blocking semantics of §IV-C:
 *
 *  - FSDP: AllGather parameters before forward and backward use
 *    (blocking, prefetchable), ReduceScatter weight gradients
 *    (non-blocking).
 *  - TP: AllReduce partial-sum activations after forward compute and
 *    input gradients in backward (blocking: consumers need them).
 *  - DDP: AllReduce weight gradients in backward (non-blocking: off
 *    the critical path of backpropagation).
 *  - MP (embedding tables): All2All pooled embeddings forward,
 *    All2All gradients backward (blocking).
 *  - MP (MoE experts): All2All dispatch + combine in each direction
 *    (blocking).
 */

#ifndef MADMAX_PARALLEL_COMM_PLANNER_HH
#define MADMAX_PARALLEL_COMM_PLANNER_HH

#include <string>
#include <vector>

#include "collective/collective.hh"
#include "hw/cluster.hh"
#include "model/model_desc.hh"
#include "parallel/strategy.hh"
#include "task/task.hh"

namespace madmax
{

/** Forward or backward half of the iteration. */
enum class Phase
{
    Forward,
    Backward,
};

/** Where a collective sits relative to its layer's compute. */
enum class CommPosition
{
    Pre,   ///< Must finish before the layer's compute (e.g. FSDP AG).
    Post,  ///< Issued after the layer's compute (e.g. TP AR, DDP AR).
};

std::string toString(Phase phase);

/** One collective call required by one layer in one phase. */
struct CommOp
{
    int layerIdx = -1;
    Phase phase = Phase::Forward;
    CommPosition position = CommPosition::Post;
    Collective kind = Collective::AllReduce;
    CommScope scope = CommScope::Global;
    double bytes = 0.0;   ///< Full logical tensor bytes.
    bool blocking = true; ///< Gates downstream compute when true.
    /** Trace label tail: the event is named layer name + suffix,
     *  e.g. "EMB_A2A" for suffix PooledA2A on layer "EMB". */
    NameSuffix suffix = NameSuffix::None;
};

/**
 * Plans the collectives for every layer of a model under a plan.
 * Stateless beyond its construction inputs; cheap to rebuild.
 */
class CommPlanner
{
  public:
    /**
     * @param desc Model + input configuration.
     * @param task Task semantics (gradient/optimizer elision).
     * @param plan Per-layer-class strategies.
     * @param cluster Target system (level shapes and fabrics).
     */
    CommPlanner(const ModelDesc &desc, const TaskSpec &task,
                const ParallelPlan &plan, const ClusterSpec &cluster);

    /** All collective calls for layer @p idx (forward and backward). */
    std::vector<CommOp> planLayer(int idx) const;

    /** Concatenation of planLayer over the whole graph. */
    std::vector<CommOp> planAll() const;

  private:
    /** One normalized strategy level. */
    struct Level
    {
        Strategy strategy;
        CommScope scope;
        int group;
        double tensorBytes; ///< Param tensor at this level (P x f_other).
    };

    std::vector<Level> levels(HierStrategy hs, double param_bytes) const;

    void planParamComms(std::vector<CommOp> &out, int idx,
                        const Level &level, bool trainable) const;
    void planActivationComms(std::vector<CommOp> &out, int idx,
                             const Level &level,
                             double act_tensor_bytes) const;
    void planShardedComms(std::vector<CommOp> &out, int idx,
                          const Level &level, double a2a_bytes,
                          bool trainable, bool is_moe) const;

    const ModelDesc &desc_;
    TaskSpec task_;
    ParallelPlan plan_;
    ClusterSpec cluster_;
};

} // namespace madmax

#endif // MADMAX_PARALLEL_COMM_PLANNER_HH
