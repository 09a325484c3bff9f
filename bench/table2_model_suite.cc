/**
 * @file
 * Regenerates Table II: the target model suite and its key
 * model-level characteristics, comparing our reconstructed model zoo
 * against the published aggregates.
 */

#include "paper.hh"
#include "model/model_zoo.hh"
#include "util/table.hh"

using namespace madmax;

namespace
{

struct PaperRow
{
    double params;       ///< <= 0 when the paper leaves it blank.
    double flopsPerTok;
    double lookupBytes;  ///< <= 0 when blank.
};

const PaperRow kPaper[] = {
    {793e9, 638e6, 22.61e6},  {795e9, 2.6e9, 13.19e6},
    {-1, 957e6, 22.61e6},     {332e9, 60e6, 49.2e3},
    {333e9, 2.1e9, 32.8e3},   {-1, 90e6, 42.8e3},
    {175e9, 350e9, -1},       {65.2e9, 130.4e9, -1},
    {70e9, 140e9, -1},        {1.8e12, 550e9, -1},
};

} // namespace

void
paper::table2(std::ostream &os)
{
    bench::banner(os,
                  "Table II: target models and key characteristics",
                  "parameter counts, FLOPs/sample(token), sparse lookup "
                  "bytes, batch sizes, context lengths");

    AsciiTable table({"model", "# params", "(paper)", "FLOPs/tok",
                      "(paper)", "lookup B/sample", "(paper)",
                      "global batch", "ctx"});

    std::vector<ModelDesc> suite = model_zoo::tableIISuite();
    for (size_t i = 0; i < suite.size(); ++i) {
        const ModelDesc &m = suite[i];
        ModelTotals t = m.graph.totals();
        const PaperRow &p = kPaper[i];
        table.addRow({
            m.name,
            formatCount(t.paramCount),
            p.params > 0 ? formatCount(p.params) : "-",
            formatCount(m.forwardFlopsPerToken()),
            formatCount(p.flopsPerTok),
            t.lookupBytesPerSample > 0
                ? formatBytes(t.lookupBytesPerSample)
                : "-",
            p.lookupBytes > 0 ? formatBytes(p.lookupBytes) : "-",
            formatCount(static_cast<double>(m.globalBatchSize)),
            std::to_string(m.contextLength),
        });
    }
    table.print(os);
}
