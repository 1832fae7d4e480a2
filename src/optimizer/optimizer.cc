#include "optimizer/optimizer.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "optimizer/fusion.h"
#include "runtime/const_fold.h"

namespace tfhpc::optimizer {
namespace {

std::set<std::string> NamesOf(const std::vector<std::string>& refs) {
  std::set<std::string> names;
  for (const std::string& r : refs) names.insert(ParseTensorRef(r).name);
  return names;
}

// Dead-node elimination. Session mode (fetches/targets given): keep exactly
// the nodes the fetch/target closure reaches — the same view the executor
// compiles, so stateful ops outside it are dead by definition. Whole-graph
// mode (graphcheck CLI): root at every terminal node plus every stateful op,
// so queues, variables and sends survive without a signature.
Result<wire::GraphDef> DeadNodeElimination(const wire::GraphDef& def,
                                           const PipelineOptions& options,
                                           int* removed) {
  *removed = 0;
  TFHPC_ASSIGN_OR_RETURN(std::unique_ptr<Graph> graph, Graph::FromGraphDef(def));

  std::set<std::string> root_set;
  if (options.fetches.empty() && options.targets.empty()) {
    std::set<std::string> consumed;
    for (const wire::NodeDef& nd : def.nodes) {
      for (const std::string& in : nd.inputs) {
        consumed.insert(ParseTensorRef(in).name);
      }
    }
    for (const wire::NodeDef& nd : def.nodes) {
      const Node* n = graph->FindNode(nd.name);
      if (consumed.count(nd.name) == 0 || n->op_def().is_stateful) {
        root_set.insert(nd.name);
      }
    }
  } else {
    root_set = NamesOf(options.fetches);
    root_set.merge(NamesOf(options.targets));
  }
  if (root_set.empty()) return def;  // nothing to anchor on: keep everything

  // Assign/AssignAdd bind their Variable by the 'var' attr, not a data edge,
  // so the edge closure alone would drop a variable whose only readers are
  // outside this signature — and GC016 rejects a writer without its
  // Variable. Re-root on attr-referenced variables until stable (one extra
  // round in practice: Variables have no inputs).
  std::vector<int> keep;
  for (;;) {
    const std::vector<std::string> roots(root_set.begin(), root_set.end());
    TFHPC_ASSIGN_OR_RETURN(keep, graph->ReachableTo(roots, /*cuts=*/{}));
    const size_t before = root_set.size();
    for (int id : keep) {
      const wire::NodeDef& nd = graph->node(id)->def();
      if (nd.op != "Assign" && nd.op != "AssignAdd") continue;
      auto it = nd.attrs.find("var");
      if (it != nd.attrs.end() &&
          it->second.kind == wire::AttrValue::Kind::kString) {
        root_set.insert(it->second.s);
      }
    }
    if (root_set.size() == before) break;
  }

  wire::GraphDef out;
  out.version = def.version;
  out.nodes.reserve(keep.size());
  for (int id : keep) out.nodes.push_back(graph->node(id)->def());
  *removed = static_cast<int>(def.nodes.size()) - static_cast<int>(keep.size());
  return out;
}

}  // namespace

const char* OptimizerLevelName(OptimizerLevel level) {
  switch (level) {
    case OptimizerLevel::kOff: return "off";
    case OptimizerLevel::kBasic: return "basic";
    case OptimizerLevel::kAggressive: return "aggressive";
  }
  return "unknown";
}

Result<OptimizerLevel> ParseOptimizerLevel(const std::string& name) {
  if (name == "off") return OptimizerLevel::kOff;
  if (name == "basic") return OptimizerLevel::kBasic;
  if (name == "aggressive") return OptimizerLevel::kAggressive;
  return InvalidArgument("unknown optimizer level '" + name +
                         "' (expected off|basic|aggressive)");
}

Result<PipelineResult> RunPassPipeline(const wire::GraphDef& def,
                                       const PipelineOptions& options) {
  PipelineResult result;
  result.graph = def;
  if (options.level == OptimizerLevel::kOff) return result;

  using PassFn =
      std::function<Result<wire::GraphDef>(const wire::GraphDef&, int*)>;
  auto run_pass = [&result](const std::string& name,
                            const PassFn& fn) -> Status {
    TFHPC_ASSIGN_OR_RETURN(GraphStats before, ComputeStats(result.graph));
    int changed = 0;
    TFHPC_ASSIGN_OR_RETURN(wire::GraphDef next, fn(result.graph, &changed));
    TFHPC_ASSIGN_OR_RETURN(GraphStats after, ComputeStats(next));
    result.passes.push_back(PassReport{name, before.num_nodes, after.num_nodes,
                                       before.num_edges, after.num_edges,
                                       changed});
    result.graph = std::move(next);
    return Status::OK();
  };

  // Feeds are run-time inputs: never constant, never foldable. Fetched or
  // targeted nodes MAY fold (they keep their name, and a Const fetch is the
  // same value cheaper), but must never be dropped or merged away.
  const std::set<std::string> fed = NamesOf(options.feeds);
  std::set<std::string> keep = fed;
  for (const std::string& n : NamesOf(options.fetches)) keep.insert(n);
  for (const std::string& n : NamesOf(options.targets)) keep.insert(n);
  for (const std::string& n : NamesOf(options.preserve)) keep.insert(n);

  TFHPC_RETURN_IF_ERROR(run_pass(
      "const_fold",
      [&](const wire::GraphDef& g, int* changed) -> Result<wire::GraphDef> {
        ConstFoldOptions fold;
        fold.max_output_bytes = options.max_const_bytes;
        fold.frozen = fed;
        TFHPC_ASSIGN_OR_RETURN(ConstFoldResult r, ConstantFolding(g, fold));
        *changed = r.folded_nodes;
        return std::move(r.graph);
      }));

  TFHPC_RETURN_IF_ERROR(run_pass(
      "cse",
      [&](const wire::GraphDef& g, int* changed) -> Result<wire::GraphDef> {
        TFHPC_ASSIGN_OR_RETURN(wire::GraphDef next,
                               CommonSubexpressionElimination(g, keep));
        *changed = static_cast<int>(g.nodes.size() - next.nodes.size());
        return next;
      }));

  TFHPC_RETURN_IF_ERROR(run_pass(
      "dead_node_elim",
      [&](const wire::GraphDef& g, int* changed) -> Result<wire::GraphDef> {
        return DeadNodeElimination(g, options, changed);
      }));

  if (options.level == OptimizerLevel::kAggressive) {
    TFHPC_RETURN_IF_ERROR(run_pass(
        "fuse_elementwise",
        [&](const wire::GraphDef& g, int* changed) -> Result<wire::GraphDef> {
          int chains = 0;
          TFHPC_ASSIGN_OR_RETURN(wire::GraphDef next,
                                 FuseElementwiseChains(g, options, &chains,
                                                       changed));
          return next;
        }));
  }
  return result;
}

Result<CheckedGraph> VerifyAndOptimize(const wire::GraphDef& def,
                                       const analysis::AnalysisOptions& check,
                                       const PipelineOptions& options) {
  CheckedGraph checked;
  checked.analysis = analysis::VerifyGraph(def, check);
  checked.findings = checked.analysis.diagnostics;
  if (options.level == OptimizerLevel::kOff || checked.analysis.has_errors()) {
    return checked;
  }
  TFHPC_ASSIGN_OR_RETURN(PipelineResult rewritten,
                         RunPassPipeline(def, options));
  checked.analysis = analysis::VerifyGraph(rewritten.graph, check);
  if (checked.analysis.has_errors()) {
    return Internal(std::string("optimizer produced an invalid graph (level ") +
                    OptimizerLevelName(options.level) + "):\n" +
                    analysis::FormatErrors(checked.analysis.diagnostics));
  }
  checked.rewrite = std::move(rewritten.graph);
  return checked;
}

}  // namespace tfhpc::optimizer
