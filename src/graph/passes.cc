#include "graph/passes.h"

#include <map>
#include <set>

namespace tfhpc {
namespace {

// Rewrites an input string's node name via `rename`, preserving control
// markers and output slots.
std::string RemapInput(const std::string& input,
                       const std::map<std::string, std::string>& rename) {
  const TensorRef ref = ParseTensorRef(input);
  auto it = rename.find(ref.name);
  if (it == rename.end()) return input;
  std::string out = input;
  out.replace(ref.control ? 1 : 0, ref.name.size(), it->second);
  return out;
}

}  // namespace

Result<wire::GraphDef> CommonSubexpressionElimination(
    const wire::GraphDef& def, const std::set<std::string>& keep) {
  // Validate and get ids in topological order.
  TFHPC_ASSIGN_OR_RETURN(std::unique_ptr<Graph> graph, Graph::FromGraphDef(def));

  std::map<std::string, std::string> rename;  // dup name -> canonical name
  std::map<std::string, std::string> signature_to_name;
  wire::GraphDef out;
  out.version = def.version;

  for (int id : graph->TopologicalOrder()) {
    const Node* n = graph->node(id);
    wire::NodeDef nd = n->def();
    for (std::string& input : nd.inputs) input = RemapInput(input, rename);

    if (!n->op_def().is_stateful && nd.op != "Placeholder") {
      // Signature: op + device + remapped inputs + attrs (serialized NodeDef
      // with the name blanked out is exactly that).
      wire::NodeDef sig_def = nd;
      sig_def.name = "?";
      const std::string sig = sig_def.Serialize();
      auto [it, inserted] = signature_to_name.emplace(sig, nd.name);
      // A protected duplicate stays in the graph under its own name (the
      // signature refers to it); everything else folds into the survivor.
      if (!inserted && keep.count(nd.name) == 0) {
        rename[nd.name] = it->second;
        continue;  // drop duplicate node
      }
    }
    out.nodes.push_back(std::move(nd));
  }
  return out;
}

Result<GraphStats> ComputeStats(const wire::GraphDef& def) {
  TFHPC_ASSIGN_OR_RETURN(std::unique_ptr<Graph> graph, Graph::FromGraphDef(def));
  GraphStats stats;
  stats.num_nodes = graph->num_nodes();
  for (int id = 0; id < graph->num_nodes(); ++id) {
    const Node* n = graph->node(id);
    stats.num_edges += static_cast<int>(n->in_edges().size());
    if (n->op_def().is_stateful) ++stats.num_stateful;
  }
  return stats;
}

}  // namespace tfhpc
