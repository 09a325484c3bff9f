/**
 * @file
 * Regenerates Fig. 3: per-model system-resource requirements —
 * (a) capacity (parameters), (b) compute (FLOPs per sample/token),
 * (c) sparse-lookup bandwidth — spanning orders of magnitude between
 * recommendation models and LLMs (observations O1/O2).
 */

#include <cmath>

#include "paper.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

namespace
{

/** Log-scale bar: one '#' per decade above the floor. */
std::string
logBar(double value, double floor)
{
    if (value <= floor)
        return "";
    int n = static_cast<int>((std::log10(value) - std::log10(floor)) *
                             4.0);
    return std::string(static_cast<size_t>(std::max(n, 1)), '#');
}

} // namespace

void
paper::fig03(std::ostream &os)
{
    bench::banner(
        os,
        "Fig. 3: model capacity / compute / bandwidth requirements",
        "requirements vary by orders of magnitude; DLRMs need >20x the "
        "sparse-lookup bandwidth of LLMs, LLMs far more FLOPs (O1/O2)");

    std::vector<ModelDesc> models;
    for (ModelDesc &m : model_zoo::tableIISuite()) {
        // Fig. 3 uses the six base models.
        if (m.name.find("Transformer") == std::string::npos &&
            m.name.find("MoE") == std::string::npos)
            models.push_back(std::move(m));
    }
    models.push_back(model_zoo::dlrmATransformer());

    os << "\n(a) capacity: parameter count\n";
    AsciiTable cap({"model", "params", "scale (log)"});
    for (const ModelDesc &m : models) {
        double p = m.graph.totals().paramCount;
        cap.addRow({m.name, formatCount(p), logBar(p, 1e9)});
    }
    cap.print(os);

    os << "\n(b) compute: forward FLOPs per sample/token\n";
    AsciiTable flops({"model", "FLOPs/token", "scale (log)"});
    for (const ModelDesc &m : models) {
        double f = m.forwardFlopsPerToken();
        flops.addRow({m.name, formatCount(f), logBar(f, 1e6)});
    }
    flops.print(os);

    os << "\n(c) sparse lookup bytes per sample\n";
    AsciiTable bw({"model", "lookup bytes/sample", "scale (log)"});
    for (const ModelDesc &m : models) {
        double b = m.graph.totals().lookupBytesPerSample;
        bw.addRow({m.name, b > 0 ? formatBytes(b) : "-",
                   logBar(b, 1e3)});
    }
    bw.print(os);

    // The O2 ratio quoted in the text.
    double dlrm_lookup =
        model_zoo::dlrmA().graph.totals().lookupBytesPerSample;
    ModelDesc llama = model_zoo::llama65b();
    double llm_lookup = llama.graph.totals().lookupBytesPerSample /
        llama.contextLength;
    os << strfmt("\nDLRM-A vs LLaMA sparse-lookup bandwidth per "
                 "sample/token: %.0fx (paper: >20x)\n",
                 dlrm_lookup / llm_lookup);
}
