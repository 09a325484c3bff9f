#include "trace/trace_event.hh"

#include "util/logging.hh"

namespace madmax
{

std::string
toString(StreamKind kind)
{
    switch (kind) {
      case StreamKind::Compute: return "compute";
      case StreamKind::Communication: return "communication";
    }
    panic("toString: unknown StreamKind");
}

std::string
toString(EventCategory cat)
{
    switch (cat) {
      case EventCategory::EmbeddingLookup: return "EmbLookup";
      case EventCategory::Gemm: return "GEMM";
      case EventCategory::AllReduce: return "AllReduce";
      case EventCategory::AllGather: return "AllGather";
      case EventCategory::ReduceScatter: return "ReduceScatter";
      case EventCategory::All2All: return "All2All";
      case EventCategory::Memcpy: return "Memcpy";
      case EventCategory::Other: return "Other";
    }
    panic("toString: unknown EventCategory");
}

std::string
toString(CollAlgo algo)
{
    switch (algo) {
      case CollAlgo::None: return "none";
      case CollAlgo::Ring: return "ring";
      case CollAlgo::Tree: return "tree";
      case CollAlgo::Hierarchical: return "hierarchical";
      case CollAlgo::PointToPoint: return "p2p";
    }
    panic("toString: unknown CollAlgo");
}

const char *
suffixText(NameSuffix suffix)
{
    switch (suffix) {
      case NameSuffix::None: return "";
      case NameSuffix::Backward: return "'";
      case NameSuffix::GradAllReduce: return "_g_AR";
      case NameSuffix::ParamGather: return "_w_AG";
      case NameSuffix::ParamRegather: return "_w_AG'";
      case NameSuffix::GradReduceScatter: return "_g_RS";
      case NameSuffix::ActAllReduce: return "_a_AR";
      case NameSuffix::ActGradAllReduce: return "_da_AR";
      case NameSuffix::Dispatch: return "_disp_A2A";
      case NameSuffix::Combine: return "_comb_A2A";
      case NameSuffix::CombineGrad: return "_dcomb_A2A";
      case NameSuffix::DispatchGrad: return "_ddisp_A2A";
      case NameSuffix::PooledA2A: return "_A2A";
      case NameSuffix::PooledGradA2A: return "_g_A2A";
    }
    panic("suffixText: unknown NameSuffix");
}

} // namespace madmax
