/**
 * @file
 * Ablation bench for the modeling design choices DESIGN.md calls out
 * (not a paper figure — a reproduction artifact):
 *
 *  1. background channel for non-blocking collectives (vs a single
 *     in-order comm stream),
 *  2. FSDP AllGather prefetching (Fig. 9's optimization),
 *  3. AllReduce algorithm (ring vs tree vs auto),
 *  4. embedding lookup skew (even sharding vs hot devices, §IV-B),
 *  5. hierarchical vs naive global collectives is covered by unit
 *     tests (collective closed forms).
 */

#include "paper.hh"
#include "core/perf_model.hh"
#include "hw/hw_zoo.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

namespace
{

ParallelPlan
dlrmPlan()
{
    ParallelPlan p;
    p.set(LayerClass::SparseEmbedding, HierStrategy{Strategy::MP});
    p.set(LayerClass::BaseDense,
          HierStrategy{Strategy::TP, Strategy::DDP});
    return p;
}

ModelDesc
skewedDlrm(double skew)
{
    ModelDesc m = model_zoo::dlrmA();
    // Rebuild the embedding with the requested hot-device skew.
    ModelDesc out;
    out.name = strfmt("DLRM-A (skew %.2f)", skew);
    out.globalBatchSize = m.globalBatchSize;
    out.contextLength = 1;
    out.isRecommendation = true;
    int emb = out.graph.addLayer(std::make_unique<EmbeddingBagLayer>(
        "EMB", 500, 12385672, 128, 88.32, 4.0, skew));
    int bot = out.graph.addLayer(std::make_unique<MlpLayer>(
        "Bot_MLP", LayerClass::BaseDense,
        std::vector<long>{256, 512, 256, 128}));
    int inter = out.graph.addLayer(std::make_unique<InteractionLayer>(
        "Interact", 501, 128, 512), {emb, bot});
    out.graph.addLayer(std::make_unique<MlpLayer>(
        "Top_MLP", LayerClass::BaseDense,
        std::vector<long>{512, 8192, 8192, 8192, 8192, 8192, 4096, 1}),
        {inter});
    return out;
}

} // namespace

void
paper::ablations(std::ostream &os)
{
    bench::banner(os,
                  "Ablations: modeling design choices",
                  "each row toggles one mechanism of the reproduction");

    const ClusterSpec zion = hw_zoo::dlrmTrainingSystem();
    const ClusterSpec llm = hw_zoo::llmTrainingSystem();
    const TaskSpec train = TaskSpec::preTraining();

    // 1. Background communication channel (DLRM-A).
    {
        os << "\n1) non-blocking collectives on a background "
              "channel (DLRM-A)\n";
        AsciiTable t({"scheduling", "iteration", "exposed comm",
                      "MQPS"});
        for (bool bg : {false, true}) {
            PerfModelOptions opts;
            opts.backgroundCommChannel = bg;
            PerfReport r = PerfModel(zion, opts).evaluate(
                model_zoo::dlrmA(), train, dlrmPlan());
            t.addRow({bg ? "background channel (model default)"
                         : "single in-order comm stream",
                      formatTime(r.iterationTime),
                      formatTime(r.exposedCommTime),
                      strfmt("%.2f", r.throughput() / 1e6)});
        }
        t.print(os);
    }

    // 2. FSDP prefetch (LLaMA) — the Fig. 9 optimization.
    {
        os << "\n2) FSDP AllGather prefetching (LLaMA-65B)\n";
        AsciiTable t({"variant", "iteration", "comm overlap",
                      "tokens/s"});
        for (bool prefetch : {false, true}) {
            ParallelPlan plan = ParallelPlan::fsdpBaseline();
            plan.fsdpPrefetch = prefetch;
            PerfReport r = PerfModel(llm).evaluate(
                model_zoo::llama65b(), train, plan);
            t.addRow({prefetch ? "prefetch on" : "prefetch off",
                      formatTime(r.iterationTime),
                      formatPercent(r.overlapFraction()),
                      formatCount(r.tokensPerSecond())});
        }
        t.print(os);
    }

    // 3. AllReduce algorithm (LLaMA with an inter-node DDP level).
    {
        os << "\n3) AllReduce algorithm (LLaMA-65B, "
              "(FSDP, DDP) transformers, memory limit off)\n";
        AsciiTable t({"algorithm", "comm time", "iteration"});
        ParallelPlan plan = ParallelPlan::fsdpBaseline();
        plan.fsdpPrefetch = true;
        plan.set(LayerClass::Transformer,
                 HierStrategy{Strategy::FSDP, Strategy::DDP});
        for (AllReduceAlgorithm algo :
             {AllReduceAlgorithm::Ring, AllReduceAlgorithm::Tree,
              AllReduceAlgorithm::Auto}) {
            PerfModelOptions opts;
            opts.allReduceAlgorithm = algo;
            opts.ignoreMemory = true;
            PerfReport r = PerfModel(llm, opts).evaluate(
                model_zoo::llama65b(), train, plan);
            t.addRow({toString(algo), formatTime(r.commTime),
                      formatTime(r.iterationTime)});
        }
        t.print(os);
    }

    // 4. Embedding lookup skew (DLRM-A).
    {
        os << "\n4) per-device lookup skew (DLRM-A; RecShard-"
              "style balancing motivates skew -> 1)\n";
        AsciiTable t({"hot-device skew", "iteration", "MQPS"});
        for (double skew : {1.0, 1.25, 1.5, 2.0}) {
            PerfReport r = PerfModel(zion).evaluate(skewedDlrm(skew),
                                                    train, dlrmPlan());
            t.addRow({strfmt("%.2fx", skew),
                      formatTime(r.iterationTime),
                      strfmt("%.2f", r.throughput() / 1e6)});
        }
        t.print(os);
    }
}
