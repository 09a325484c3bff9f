#include "model/model_desc.hh"

#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

double
ModelDesc::forwardFlopsPerToken() const
{
    return graph.totals().forwardFlopsPerSample /
        static_cast<double>(contextLength);
}

double
ModelDesc::kvBytesPerToken(double bytes_per_element) const
{
    double per_token = 0.0;
    for (int i = 0; i < graph.numLayers(); ++i) {
        const Layer &layer = graph.layer(i);
        if (layer.kind() != LayerKind::Attention)
            continue;
        per_token += static_cast<const AttentionLayer &>(layer)
                         .kvBytesPerToken(bytes_per_element);
    }
    return per_token;
}

void
ModelDesc::validate() const
{
    if (graph.empty())
        fatal(strfmt("model '%s': empty layer graph", name.c_str()));
    if (globalBatchSize < 1)
        fatal(strfmt("model '%s': globalBatchSize must be >= 1",
                     name.c_str()));
    if (contextLength < 1)
        fatal(strfmt("model '%s': contextLength must be >= 1",
                     name.c_str()));
}

} // namespace madmax
