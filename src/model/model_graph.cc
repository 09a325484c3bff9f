#include "model/model_graph.hh"

#include <utility>

#include "util/logging.hh"
#include "util/strfmt.hh"

namespace madmax
{

ModelGraph::ModelGraph(const ModelGraph &other)
    : classMask_(other.classMask_)
{
    nodes_.reserve(other.nodes_.size());
    for (const Node &n : other.nodes_)
        nodes_.push_back(Node{n.layer->clone(), n.deps});
}

ModelGraph &
ModelGraph::operator=(const ModelGraph &other)
{
    if (this == &other)
        return *this;
    nodes_.clear();
    nodes_.reserve(other.nodes_.size());
    for (const Node &n : other.nodes_)
        nodes_.push_back(Node{n.layer->clone(), n.deps});
    classMask_ = other.classMask_;
    return *this;
}

ModelGraph::ModelGraph(ModelGraph &&other) noexcept
    : nodes_(std::move(other.nodes_)),
      classMask_(std::exchange(other.classMask_, 0))
{}

ModelGraph &
ModelGraph::operator=(ModelGraph &&other) noexcept
{
    if (this == &other)
        return *this;
    nodes_ = std::move(other.nodes_);
    classMask_ = std::exchange(other.classMask_, 0);
    return *this;
}

int
ModelGraph::addLayer(std::unique_ptr<Layer> layer, std::vector<int> deps)
{
    if (!layer)
        panic("ModelGraph::addLayer: null layer");
    int idx = numLayers();
    for (int d : deps) {
        if (d < 0 || d >= idx) {
            fatal(strfmt("layer '%s': dependency %d out of range [0, %d)",
                         layer->name().c_str(), d, idx));
        }
    }
    classMask_ |= classBit(layer->layerClass());
    nodes_.push_back(Node{std::move(layer), std::move(deps)});
    return idx;
}

const Layer &
ModelGraph::layer(int idx) const
{
    if (idx < 0 || idx >= numLayers())
        panic(strfmt("ModelGraph::layer: index %d out of range", idx));
    return *nodes_[static_cast<size_t>(idx)].layer;
}

const std::vector<int> &
ModelGraph::deps(int idx) const
{
    if (idx < 0 || idx >= numLayers())
        panic(strfmt("ModelGraph::deps: index %d out of range", idx));
    return nodes_[static_cast<size_t>(idx)].deps;
}

ModelTotals
ModelGraph::totals() const
{
    ModelTotals t;
    for (const Node &n : nodes_) {
        double params = n.layer->paramCount();
        t.paramCount += params;
        t.forwardFlopsPerSample += n.layer->forwardFlopsPerSample();
        t.lookupBytesPerSample += n.layer->lookupBytesPerSample();
        t.paramsByClass[n.layer->layerClass()] += params;
    }
    return t;
}

} // namespace madmax
