#include "parallel/strategy.hh"

#include "util/logging.hh"

namespace madmax
{

std::string
toString(Strategy s)
{
    switch (s) {
      case Strategy::None: return "None";
      case Strategy::DDP: return "DDP";
      case Strategy::FSDP: return "FSDP";
      case Strategy::TP: return "TP";
      case Strategy::MP: return "MP";
    }
    panic("toString: unknown Strategy");
}

bool
shardsParams(Strategy s)
{
    return s == Strategy::FSDP || s == Strategy::TP || s == Strategy::MP;
}

bool
splitsData(Strategy s)
{
    return s == Strategy::DDP || s == Strategy::FSDP;
}

std::string
HierStrategy::toString() const
{
    if (isGlobal())
        return "(" + madmax::toString(intra) + ")";
    return "(" + madmax::toString(intra) + ", " +
        madmax::toString(inter) + ")";
}

HierStrategy
ParallelPlan::strategyFor(LayerClass cls) const
{
    if (const auto &hs = byClass[static_cast<size_t>(cls)])
        return *hs;
    if (cls == LayerClass::SparseEmbedding)
        return HierStrategy{Strategy::MP};
    return HierStrategy{Strategy::FSDP};
}

ParallelPlan &
ParallelPlan::set(LayerClass cls, HierStrategy hs)
{
    byClass[static_cast<size_t>(cls)] = hs;
    return *this;
}

ParallelPlan
ParallelPlan::fsdpBaseline()
{
    ParallelPlan p;
    p.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    p.set(LayerClass::DenseEmbedding, HierStrategy{Strategy::FSDP});
    p.set(LayerClass::BaseDense, HierStrategy{Strategy::FSDP});
    p.set(LayerClass::Transformer, HierStrategy{Strategy::FSDP});
    // Production FSDP recipes pair with expert parallelism for MoE
    // banks (gathering all experts per layer would dwarf the useful
    // work); experts are sharded like embedding tables.
    p.set(LayerClass::MoE, HierStrategy{Strategy::MP});
    // The baseline is plain FSDP; AllGather prefetching is the
    // *optimized* implementation of Fig. 9 and part of the tuned
    // configurations MAD-Max identifies.
    p.fsdpPrefetch = false;
    return p;
}

std::string
ParallelPlan::toString() const
{
    std::string out;
    for (size_t c = 0; c < kNumLayerClasses; ++c) {
        if (!byClass[c])
            continue;
        if (!out.empty())
            out += " ";
        out += madmax::toString(static_cast<LayerClass>(c)) + "=" +
            byClass[c]->toString();
    }
    if (fsdpPrefetch)
        out += " +prefetch";
    return out.empty() ? "(defaults)" : out;
}

} // namespace madmax
