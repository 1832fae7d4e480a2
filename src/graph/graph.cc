#include "graph/graph.h"

#include <algorithm>
#include <charconv>

namespace tfhpc {

TensorRef ParseTensorRef(std::string_view ref) {
  TensorRef r;
  if (!ref.empty() && ref[0] == '^') {
    r.control = true;
    ref.remove_prefix(1);
  }
  const size_t colon = ref.find(':');
  r.name = std::string(ref.substr(0, colon));
  if (colon == std::string_view::npos) return r;
  const std::string_view digits = ref.substr(colon + 1);
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, r.slot);
  if (r.control || ec != std::errc() || ptr != end || r.slot < 0) r.slot = -1;
  return r;
}

int Node::num_data_inputs() const {
  return static_cast<int>(
      std::count_if(in_edges_.begin(), in_edges_.end(),
                    [](const InEdge& e) { return !e.control; }));
}

namespace {
Status AttrError(const std::string& node, const std::string& attr,
                 const char* kind) {
  return InvalidArgument("node '" + node + "': attr '" + attr + "' missing or not " +
                         kind);
}
}  // namespace

Result<int64_t> Node::AttrInt(const std::string& name) const {
  auto it = def_.attrs.find(name);
  if (it == def_.attrs.end() || it->second.kind != wire::AttrValue::Kind::kInt)
    return AttrError(def_.name, name, "int");
  return it->second.i;
}
Result<double> Node::AttrFloat(const std::string& name) const {
  auto it = def_.attrs.find(name);
  if (it == def_.attrs.end() || it->second.kind != wire::AttrValue::Kind::kFloat)
    return AttrError(def_.name, name, "float");
  return it->second.f;
}
Result<std::string> Node::AttrString(const std::string& name) const {
  auto it = def_.attrs.find(name);
  if (it == def_.attrs.end() || it->second.kind != wire::AttrValue::Kind::kString)
    return AttrError(def_.name, name, "string");
  return it->second.s;
}
Result<DType> Node::AttrType(const std::string& name) const {
  auto it = def_.attrs.find(name);
  if (it == def_.attrs.end() || it->second.kind != wire::AttrValue::Kind::kType)
    return AttrError(def_.name, name, "type");
  return it->second.type;
}
Result<Shape> Node::AttrShape(const std::string& name) const {
  auto it = def_.attrs.find(name);
  if (it == def_.attrs.end() || it->second.kind != wire::AttrValue::Kind::kShape)
    return AttrError(def_.name, name, "shape");
  return it->second.shape;
}
Result<bool> Node::AttrBool(const std::string& name) const {
  auto it = def_.attrs.find(name);
  if (it == def_.attrs.end() || it->second.kind != wire::AttrValue::Kind::kBool)
    return AttrError(def_.name, name, "bool");
  return it->second.b;
}

Result<std::unique_ptr<Node>> Node::Detached(wire::NodeDef def) {
  const OpDef* op_def = OpRegistry::Global().Lookup(def.op);
  if (op_def == nullptr) return NotFound("op '" + def.op + "' not registered");
  auto node = std::make_unique<Node>();
  node->def_ = std::move(def);
  node->op_def_ = op_def;
  return node;
}

Result<Node*> Graph::AddNode(wire::NodeDef def) {
  if (def.name.empty()) return InvalidArgument("node with empty name");
  if (def.name.find(':') != std::string::npos || def.name[0] == '^') {
    return InvalidArgument("node name '" + def.name +
                           "' contains ':' or starts with '^' (it would "
                           "parse as a tensor reference)");
  }
  if (by_name_.count(def.name)) {
    return AlreadyExists("duplicate node name '" + def.name + "'");
  }
  const OpDef* op_def = OpRegistry::Global().Lookup(def.op);
  if (op_def == nullptr) {
    return NotFound("op '" + def.op + "' not registered (node '" + def.name +
                    "')");
  }

  auto node = std::make_unique<Node>();
  node->def_ = std::move(def);
  node->op_def_ = op_def;
  node->id_ = static_cast<int>(nodes_.size());

  int data_inputs = 0;
  for (const std::string& input : node->def_.inputs) {
    const TensorRef ref = ParseTensorRef(input);
    if (ref.slot < 0) return InvalidArgument("bad input spec '" + input + "'");
    auto it = by_name_.find(ref.name);
    if (it == by_name_.end()) {
      return NotFound("input '" + ref.name + "' of node '" + node->def_.name +
                      "' not found (inputs must be added first)");
    }
    const InEdge e{it->second, ref.slot, ref.control};
    if (!e.control) ++data_inputs;
    if (!e.control &&
        e.output_index >= nodes_[static_cast<size_t>(e.node_id)]->op_def().num_outputs) {
      return OutOfRange("input '" + input + "' output index out of range");
    }
    node->in_edges_.push_back(e);
  }

  TFHPC_RETURN_IF_ERROR(CheckArity(*op_def, node->def_.name, data_inputs));

  Node* raw = node.get();
  by_name_[node->def_.name] = node->id_;
  nodes_.push_back(std::move(node));
  version_.fetch_add(1, std::memory_order_release);
  return raw;
}

Status Graph::SetNodeDevice(const std::string& name,
                            const std::string& device) {
  Node* n = FindNode(name);
  if (n == nullptr) return NotFound("node '" + name + "' not found");
  if (n->def_.device == device) return Status::OK();
  n->def_.device = device;
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Node* Graph::FindNode(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : nodes_[static_cast<size_t>(it->second)].get();
}

const Node* Graph::FindNode(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : nodes_[static_cast<size_t>(it->second)].get();
}

std::vector<int> Graph::TopologicalOrder() const {
  // Construction enforces inputs-before-consumers, so ids are topological.
  std::vector<int> order(static_cast<size_t>(num_nodes()));
  for (int i = 0; i < num_nodes(); ++i) order[static_cast<size_t>(i)] = i;
  return order;
}

Result<std::vector<int>> Graph::ReachableTo(
    const std::vector<std::string>& roots,
    const std::set<std::string>& cuts) const {
  std::vector<bool> visited(static_cast<size_t>(num_nodes()), false);
  std::vector<int> result;
  auto visit = [&](int id) {
    if (visited[static_cast<size_t>(id)]) return;
    visited[static_cast<size_t>(id)] = true;
    result.push_back(id);
  };
  for (const std::string& root : roots) {
    const TensorRef ref = ParseTensorRef(root);
    if (ref.slot < 0 || ref.control) {
      return InvalidArgument("malformed fetch/target '" + root +
                             "' (a control reference is not a tensor)");
    }
    const Node* n = FindNode(ref.name);
    if (n == nullptr) {
      return NotFound("fetch/target node '" + ref.name + "' not found");
    }
    visit(n->id());
  }
  // `result` doubles as the worklist: every id in it is expanded once.
  for (size_t i = 0; i < result.size(); ++i) {
    const Node* n = nodes_[static_cast<size_t>(result[i])].get();
    if (cuts.count(n->name())) continue;
    for (const InEdge& e : n->in_edges()) visit(e.node_id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::string Graph::UniqueName(const std::string& prefix) {
  for (;;) {
    const int n = name_counters_[prefix]++;
    const std::string candidate =
        n == 0 ? prefix : prefix + "_" + std::to_string(n);
    if (!by_name_.count(candidate)) return candidate;
  }
}

wire::GraphDef Graph::ToGraphDef() const {
  wire::GraphDef def;
  def.nodes.reserve(nodes_.size());
  for (const auto& n : nodes_) def.nodes.push_back(n->def());
  return def;
}

Result<std::unique_ptr<Graph>> Graph::FromGraphDef(const wire::GraphDef& def) {
  auto graph = std::make_unique<Graph>();
  for (const auto& node_def : def.nodes) {
    TFHPC_ASSIGN_OR_RETURN(Node * n, graph->AddNode(node_def));
    (void)n;
  }
  return graph;
}

}  // namespace tfhpc
