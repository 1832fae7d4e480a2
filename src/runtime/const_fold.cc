#include "runtime/const_fold.h"

#include <set>

#include "kernels/kernel.h"

namespace tfhpc {

Result<ConstFoldResult> ConstantFolding(const wire::GraphDef& def,
                                        const ConstFoldOptions& options) {
  TFHPC_ASSIGN_OR_RETURN(std::unique_ptr<Graph> graph, Graph::FromGraphDef(def));

  // Nodes currently known constant, with their materialized value.
  std::map<std::string, Tensor> const_values;
  ResourceMgr scratch_resources;
  ConstFoldResult result;
  result.graph.version = def.version;

  for (int id : graph->TopologicalOrder()) {
    const Node* n = graph->node(id);
    const wire::NodeDef& nd = n->def();

    // Existing Const nodes join the pool as-is — unless frozen (a fed Const
    // has no static value; its run-time feed overrides the attr).
    if (nd.op == "Const") {
      auto it = nd.attrs.find("value");
      if (it != nd.attrs.end() && options.frozen.count(nd.name) == 0) {
        auto parsed = wire::ParseTensor(it->second.s);
        if (parsed.ok()) const_values.emplace(nd.name, std::move(*parsed));
      }
      result.graph.nodes.push_back(nd);
      continue;
    }

    // Foldable: stateless, single output, all data inputs constant, no
    // control inputs (they impose ordering we cannot erase), and not frozen
    // (fed/fetched nodes keep their identity and run-time behavior).
    bool foldable = !n->op_def().is_stateful && !n->op_def().is_blocking &&
                    n->op_def().num_outputs == 1 &&
                    options.frozen.count(nd.name) == 0;
    std::vector<Tensor> inputs;
    for (const InEdge& e : n->in_edges()) {
      if (e.control) {
        foldable = false;
        break;
      }
      auto it = const_values.find(graph->node(e.node_id)->name());
      if (it == const_values.end() || e.output_index != 0) {
        foldable = false;
        break;
      }
      inputs.push_back(it->second);
    }
    if (foldable && KernelRegistry::Global().HasKernel(nd.op, "cpu")) {
      auto kernel = KernelRegistry::Global().Create(nd.op, "cpu");
      if (kernel.ok()) {
        OpKernelContext ctx(n, inputs, &scratch_resources);
        const Status st = (*kernel)->Compute(&ctx);
        if (st.ok() && !ctx.outputs().empty() && ctx.outputs()[0].valid() &&
            ctx.outputs()[0].bytes() <= options.max_output_bytes) {
          Tensor value = std::move(ctx.outputs()[0]);
          wire::NodeDef folded;
          folded.name = nd.name;  // keep the name: consumers stay valid
          folded.op = "Const";
          folded.device = nd.device;
          folded.attrs["value"] =
              wire::AttrValue::Str(wire::SerializeTensor(value));
          folded.attrs["dtype"] = wire::AttrValue::Type(value.dtype());
          const_values.emplace(nd.name, std::move(value));
          result.graph.nodes.push_back(std::move(folded));
          result.folded_nodes++;
          continue;
        }
        // Evaluation errors (shape mismatches etc.) are left for Run time,
        // where they surface with proper node context.
      }
    }
    result.graph.nodes.push_back(nd);
  }

  // Folding can orphan Const nodes nothing consumes anymore. They stay
  // here; the optimizer pipeline's dead-node pass removes them.
  return result;
}

}  // namespace tfhpc
