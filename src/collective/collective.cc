#include "collective/collective.hh"

#include "util/logging.hh"

namespace madmax
{

std::string
toString(Collective kind)
{
    switch (kind) {
      case Collective::AllReduce: return "AllReduce";
      case Collective::AllGather: return "AllGather";
      case Collective::ReduceScatter: return "ReduceScatter";
      case Collective::All2All: return "All2All";
      case Collective::Broadcast: return "Broadcast";
    }
    panic("toString: unknown Collective");
}

std::string
toString(CommScope scope)
{
    switch (scope) {
      case CommScope::Intra: return "intra";
      case CommScope::Inter: return "inter";
      case CommScope::Global: return "global";
    }
    panic("toString: unknown CommScope");
}

std::string
toString(AllReduceAlgorithm algo)
{
    switch (algo) {
      case AllReduceAlgorithm::Ring: return "ring";
      case AllReduceAlgorithm::Tree: return "tree";
      case AllReduceAlgorithm::Auto: return "auto";
    }
    panic("toString: unknown AllReduceAlgorithm");
}

} // namespace madmax
