/**
 * @file
 * Dependency graph of layers with an explicit forward execution order
 * (§IV-C "Specifying Explicit Execution Order"). Node indices double
 * as execution priority; edges record data dependencies that the
 * stream builder turns into blocking relationships (e.g. the DLRM
 * interaction layer depends on both the embedding All2All and the
 * bottom MLP).
 */

#ifndef MADMAX_MODEL_MODEL_GRAPH_HH
#define MADMAX_MODEL_MODEL_GRAPH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "model/layer.hh"

namespace madmax
{

/** Aggregate model-level characteristics (drives Table II / Fig. 3). */
struct ModelTotals
{
    double paramCount = 0.0;
    double forwardFlopsPerSample = 0.0;
    double lookupBytesPerSample = 0.0;
    std::map<LayerClass, double> paramsByClass;
};

/**
 * An ordered DAG of layers. Construction order defines forward
 * execution order; the backward pass is the reverse.
 */
class ModelGraph
{
  public:
    ModelGraph() = default;

    // Graphs own their layers; deep-copy on copy.
    ModelGraph(const ModelGraph &other);
    ModelGraph &operator=(const ModelGraph &other);
    ModelGraph(ModelGraph &&other) noexcept;
    ModelGraph &operator=(ModelGraph &&other) noexcept;

    /**
     * Append a layer.
     *
     * @param layer The layer block (ownership transferred).
     * @param deps Indices of layers whose *outputs* this layer
     *        consumes. Must all be < the new layer's index. An empty
     *        list marks a graph input (e.g. both the embedding bag and
     *        the bottom MLP in a DLRM).
     * @return The new layer's index.
     */
    int addLayer(std::unique_ptr<Layer> layer, std::vector<int> deps = {});

    int numLayers() const { return static_cast<int>(nodes_.size()); }
    bool empty() const { return nodes_.empty(); }

    const Layer &layer(int idx) const;
    const std::vector<int> &deps(int idx) const;

    /** Sum up model-level characteristics across all layers. */
    ModelTotals totals() const;

    /** True if any layer belongs to @p cls. O(1): canonical keys and
     *  the memory model ask this for every plan of a sweep. */
    bool hasClass(LayerClass cls) const
    {
        return (classMask_ & classBit(cls)) != 0;
    }

  private:
    struct Node
    {
        std::unique_ptr<Layer> layer;
        std::vector<int> deps;
    };

    static uint32_t classBit(LayerClass cls)
    {
        return 1u << static_cast<unsigned>(cls);
    }

    std::vector<Node> nodes_;
    uint32_t classMask_ = 0; ///< classBit() of every present class.
};

} // namespace madmax

#endif // MADMAX_MODEL_MODEL_GRAPH_HH
