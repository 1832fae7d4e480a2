// The dataflow graph: nodes are operations, edges are tensors (data inputs)
// or ordering constraints (control inputs, written "^name"). Graphs are
// constructed deferred-execution style and executed later by a Session —
// the TensorFlow "Graph mode" the paper builds every application on.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "graph/op_def.h"
#include "wire/messages.h"

namespace tfhpc {

class Graph;

// A tensor reference as NodeDef inputs, feeds and fetches spell it: "name"
// (output 0), "name:slot", or "^name" (a control input). Node names never
// contain ':' or start with '^' (AddNode rejects both), so the first ':'
// always starts the slot.
struct TensorRef {
  std::string name;
  // Output index; -1 when the reference is malformed: the text after ':' is
  // not a decimal int, or a control reference carries a slot.
  int slot = 0;
  bool control = false;
};
TensorRef ParseTensorRef(std::string_view ref);

// A resolved input edge: producer node id + output slot, or control edge.
struct InEdge {
  int node_id = -1;
  int output_index = 0;
  bool control = false;
};

class Node {
 public:
  int id() const { return id_; }
  const std::string& name() const { return def_.name; }
  const std::string& op() const { return def_.op; }
  const wire::NodeDef& def() const { return def_; }
  const OpDef& op_def() const { return *op_def_; }
  const std::string& requested_device() const { return def_.device; }

  const std::vector<InEdge>& in_edges() const { return in_edges_; }
  int num_data_inputs() const;

  // Attribute lookups; Status error if absent/mistyped.
  Result<int64_t> AttrInt(const std::string& name) const;
  Result<double> AttrFloat(const std::string& name) const;
  Result<std::string> AttrString(const std::string& name) const;
  Result<DType> AttrType(const std::string& name) const;
  Result<Shape> AttrShape(const std::string& name) const;
  Result<bool> AttrBool(const std::string& name) const;
  bool HasAttr(const std::string& name) const {
    return def_.attrs.count(name) > 0;
  }

  // A node not owned by any graph, used by eager execution to carry op
  // identity + attrs into a kernel invocation (inputs are bound directly on
  // the kernel context, so arity is checked by the caller, not here).
  static Result<std::unique_ptr<Node>> Detached(wire::NodeDef def);

 private:
  friend class Graph;
  int id_ = -1;
  wire::NodeDef def_;
  const OpDef* op_def_ = nullptr;
  std::vector<InEdge> in_edges_;
};

class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // Adds a node. Input strings are tensor references (see TensorRef) and
  // must refer to already-added nodes. The op must be registered, and the
  // name must be non-empty, contain no ':' and not start with '^'.
  Result<Node*> AddNode(wire::NodeDef def);

  // Re-pins an existing node to a different device spec. This is the one
  // in-place mutation the runtime performs (job-level recovery re-places an
  // evicted task's nodes on the client graph before re-partitioning it); it
  // bumps version() so executables compiled against the old placement go
  // stale.
  Status SetNodeDevice(const std::string& name, const std::string& device);

  // Monotonic mutation counter: bumped by every AddNode/SetNodeDevice. An
  // Executable (its pruned closure and placements) is valid only for the
  // version it was compiled against. Atomic because concurrent Run callers
  // poll it (staleness checks) while a session/server thread extends the
  // graph; the counter read is safe lock-free, but *walking* nodes still
  // requires the owner's graph lock against concurrent mutation.
  int64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  Node* FindNode(const std::string& name);
  const Node* FindNode(const std::string& name) const;
  Node* node(int id) { return nodes_[static_cast<size_t>(id)].get(); }
  const Node* node(int id) const { return nodes_[static_cast<size_t>(id)].get(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Node ids in a valid topological order (inputs before consumers). The
  // construction order already is one since inputs must pre-exist; this
  // returns ids 0..n-1.
  std::vector<int> TopologicalOrder() const;

  // The fetch closure: ids, ascending (so topological), of the `roots` and
  // every node they transitively depend on through data or control edges.
  // Roots are tensor references ("name" or "name:slot"). A node named in
  // `cuts` joins the closure when reached but the walk stops there: a fed
  // node's value comes from its feed, so its ancestors are not needed.
  // kInvalidArgument for a malformed or control ("^name") root, kNotFound
  // for an unknown one.
  Result<std::vector<int>> ReachableTo(const std::vector<std::string>& roots,
                                       const std::set<std::string>& cuts) const;

  // Generates a fresh node name with the given prefix ("MatMul" ->
  // "MatMul_3").
  std::string UniqueName(const std::string& prefix);

  wire::GraphDef ToGraphDef() const;
  static Result<std::unique_ptr<Graph>> FromGraphDef(const wire::GraphDef& def);

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::string, int> by_name_;
  std::map<std::string, int> name_counters_;
  std::atomic<int64_t> version_{0};
};

}  // namespace tfhpc
