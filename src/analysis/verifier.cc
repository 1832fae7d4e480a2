#include "analysis/verifier.h"

#include <deque>
#include <set>

#include "core/device_name.h"
#include "graph/graph.h"

namespace tfhpc::analysis {
namespace {

struct ResolvedEdge {
  int producer = -1;
  int slot = 0;
  bool control = false;
};

struct NodeInfo {
  const wire::NodeDef* def = nullptr;
  const OpDef* op_def = nullptr;       // null: unknown op (GC002)
  std::vector<ResolvedEdge> edges;     // successfully resolved inputs
  bool structurally_ok = true;         // eligible for inference
  bool in_cycle = false;
};

class GraphChecker {
 public:
  GraphChecker(const wire::GraphDef& def, const AnalysisOptions& options)
      : def_(def), options_(options) {}

  GraphAnalysis Run() {
    BuildNames();
    ResolveNodes();
    DetectCycles();
    InferShapes();
    ComputeClosure();
    LintVariables();
    LintQueues();
    LintDeadNodes();

    GraphAnalysis result;
    result.diagnostics = std::move(diags_);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].structurally_ok && !nodes_[i].in_cycle) {
        result.annotations[nodes_[i].def->name] = outputs_[i];
      }
    }
    return result;
  }

 private:
  void Emit(Severity sev, std::string code, std::string node,
            std::string message, std::string hint = "") {
    diags_.push_back(Diagnostic{sev, std::move(code), std::move(node),
                                std::move(message), std::move(hint)});
  }

  void BuildNames() {
    nodes_.resize(def_.nodes.size());
    for (size_t i = 0; i < def_.nodes.size(); ++i) {
      const wire::NodeDef& nd = def_.nodes[i];
      nodes_[i].def = &nd;
      if (nd.name.empty()) {
        Emit(Severity::kError, "GC001", "", "node with empty name",
             "every node needs a unique non-empty name");
        nodes_[i].structurally_ok = false;
        continue;
      }
      auto [it, inserted] = by_name_.emplace(nd.name, static_cast<int>(i));
      if (!inserted) {
        Emit(Severity::kError, "GC001", nd.name,
             "duplicate node name (first defined as op " +
                 def_.nodes[static_cast<size_t>(it->second)].op + ")",
             "rename one of the nodes");
        nodes_[i].structurally_ok = false;
      }
    }
  }

  void ResolveNodes() {
    for (size_t i = 0; i < def_.nodes.size(); ++i) {
      const wire::NodeDef& nd = def_.nodes[i];
      NodeInfo& info = nodes_[i];

      info.op_def = OpRegistry::Global().Lookup(nd.op);
      if (info.op_def == nullptr) {
        Emit(Severity::kError, "GC002", nd.name,
             "op '" + nd.op + "' is not registered",
             "register the op or fix the op name");
        info.structurally_ok = false;
      }

      if (!nd.device.empty() && !DeviceName::Parse(nd.device).ok()) {
        Emit(Severity::kError, "GC007", nd.name,
             "invalid device string '" + nd.device + "'",
             "use specs like '/job:worker/task:0/gpu:0'");
      }

      // Producers already carrying data edges to this node; a control edge
      // from the same producer is redundant.
      std::set<int> data_producers;
      std::set<int> control_producers;
      int data_inputs = 0;
      for (const std::string& input : nd.inputs) {
        const TensorRef ref = ParseTensorRef(input);
        const std::string& name = ref.name;
        ResolvedEdge e;
        e.control = ref.control;
        e.slot = ref.slot;
        if (!e.control) ++data_inputs;
        auto it = by_name_.find(name);
        if (ref.slot < 0 || it == by_name_.end()) {
          Emit(Severity::kError, "GC003", nd.name,
               "input '" + input + "' does not resolve to any node",
               "check the producer's name");
          info.structurally_ok = false;
          continue;
        }
        e.producer = it->second;
        const OpDef* producer_op =
            nodes_[static_cast<size_t>(e.producer)].op_def;
        if (!e.control && producer_op != nullptr &&
            e.slot >= producer_op->num_outputs) {
          Emit(Severity::kError, "GC004", nd.name,
               "input '" + input + "' names output slot " +
                   std::to_string(e.slot) + " but op " + producer_op->name +
                   " has " + std::to_string(producer_op->num_outputs) +
                   " output(s)",
               "use a slot below the producer's output count");
          info.structurally_ok = false;
          continue;
        }
        if (e.control) {
          if (!control_producers.insert(e.producer).second) {
            Emit(Severity::kWarning, "GC008", nd.name,
                 "duplicate control edge from '" + name + "'",
                 "drop the repeated '^" + name + "' input");
          }
        } else {
          data_producers.insert(e.producer);
        }
        info.edges.push_back(e);
      }
      for (int p : control_producers) {
        if (data_producers.count(p)) {
          Emit(Severity::kWarning, "GC008", nd.name,
               "redundant control edge from '" +
                   def_.nodes[static_cast<size_t>(p)].name +
                   "': a data edge from the same producer already orders "
                   "execution",
               "drop the control input");
        }
      }

      if (info.op_def != nullptr) {
        Status arity = CheckArity(*info.op_def, nd.name, data_inputs);
        if (!arity.ok()) {
          Emit(Severity::kError, "GC005", nd.name,
               StripCode(arity.message()),
               "match the op's declared input arity");
          info.structurally_ok = false;
        }
      }
    }
  }

  // Iterative DFS cycle detection over resolved edges (data and control),
  // reporting each cycle as a readable "a -> b -> a" trace. Also fills
  // topo_order_ (producers before consumers) for the inference pass; nodes
  // on cycles are excluded from it.
  void DetectCycles() {
    const int n = static_cast<int>(nodes_.size());
    std::vector<int> color(static_cast<size_t>(n), 0);  // 0 new 1 stack 2 done
    std::vector<int> path;  // current DFS chain, for cycle traces
    for (int start = 0; start < n; ++start) {
      if (color[static_cast<size_t>(start)] != 0) continue;
      // Stack of (node, next edge index to explore).
      std::vector<std::pair<int, size_t>> stack{{start, 0}};
      color[static_cast<size_t>(start)] = 1;
      path.push_back(start);
      while (!stack.empty()) {
        auto& [node, edge_idx] = stack.back();
        const auto& edges = nodes_[static_cast<size_t>(node)].edges;
        if (edge_idx < edges.size()) {
          const int producer = edges[edge_idx].producer;
          ++edge_idx;
          if (color[static_cast<size_t>(producer)] == 0) {
            color[static_cast<size_t>(producer)] = 1;
            stack.emplace_back(producer, 0);
            path.push_back(producer);
          } else if (color[static_cast<size_t>(producer)] == 1) {
            // Back edge: `producer` is on the current chain. The cycle runs
            // producer -> ... -> node -> producer; inputs point backwards,
            // so the dataflow direction is the path reversed.
            std::string trace;
            size_t pos = path.size();
            while (pos > 0 && path[pos - 1] != producer) --pos;
            std::string head = def_.nodes[static_cast<size_t>(producer)].name;
            trace = head;
            for (size_t k = path.size(); k > pos; --k) {
              trace += " -> " +
                       def_.nodes[static_cast<size_t>(path[k - 1])].name;
            }
            trace += " -> " + head;  // close the loop: "a -> b -> a"
            Emit(Severity::kError, "GC006",
                 def_.nodes[static_cast<size_t>(node)].name,
                 "cycle detected: " + trace,
                 "break the cycle; dataflow graphs must be acyclic");
            for (size_t k = pos > 0 ? pos - 1 : 0; k < path.size(); ++k) {
              nodes_[static_cast<size_t>(path[k])].in_cycle = true;
            }
          }
        } else {
          color[static_cast<size_t>(node)] = 2;
          stack.pop_back();
          path.pop_back();
        }
      }
    }

    // Kahn's algorithm for the inference order; cycle members never reach
    // in-degree zero and are left out.
    std::vector<int> pending(static_cast<size_t>(n), 0);
    std::vector<std::vector<int>> consumers(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (const ResolvedEdge& e : nodes_[static_cast<size_t>(i)].edges) {
        pending[static_cast<size_t>(i)]++;
        consumers[static_cast<size_t>(e.producer)].push_back(i);
      }
    }
    std::deque<int> ready;
    for (int i = 0; i < n; ++i) {
      if (pending[static_cast<size_t>(i)] == 0) ready.push_back(i);
    }
    while (!ready.empty()) {
      const int i = ready.front();
      ready.pop_front();
      topo_order_.push_back(i);
      for (int consumer : consumers[static_cast<size_t>(i)]) {
        if (--pending[static_cast<size_t>(consumer)] == 0) {
          ready.push_back(consumer);
        }
      }
    }
  }

  void InferShapes() {
    outputs_.resize(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const int num_outputs =
          nodes_[i].op_def != nullptr
              ? std::max(1, nodes_[i].op_def->num_outputs)
              : 1;
      outputs_[i].assign(static_cast<size_t>(num_outputs), InferredTensor{});
    }
    for (int idx : topo_order_) {
      const NodeInfo& info = nodes_[static_cast<size_t>(idx)];
      if (info.op_def == nullptr || !info.structurally_ok) continue;
      const ShapeFn* fn = ShapeFnRegistry::Global().Lookup(info.def->op);
      if (fn == nullptr) continue;

      std::vector<InferredTensor> inputs;
      for (const ResolvedEdge& e : info.edges) {
        if (e.control) continue;
        const auto& producer_outputs = outputs_[static_cast<size_t>(e.producer)];
        inputs.push_back(static_cast<size_t>(e.slot) < producer_outputs.size()
                             ? producer_outputs[static_cast<size_t>(e.slot)]
                             : InferredTensor{});
      }
      InferenceContext ctx(info.def,
                           static_cast<int>(outputs_[static_cast<size_t>(idx)].size()),
                           std::move(inputs));
      Status st = (*fn)(ctx);
      if (!st.ok()) {
        std::string code = ExtractCode(st.message());
        if (code.empty()) code = "GC010";
        const char* hint =
            code == "GC009"
                ? "insert a Cast or fix the producing op's dtype"
                : (code == "GC017" ? "set the required attr on the node"
                                   : "fix the operand shapes; the kernel "
                                     "would fail at runtime");
        Emit(Severity::kError, code, info.def->name, StripCode(st.message()),
             hint);
        continue;  // outputs stay unknown
      }
      outputs_[static_cast<size_t>(idx)] = ctx.outputs();
    }
  }

  // Closure over fetch/target roots with feeds as cut points; whole graph
  // when no roots are given.
  void ComputeClosure() {
    const size_t n = nodes_.size();
    in_closure_.assign(n, false);
    fed_.assign(n, false);
    for (const std::string& f : options_.feeds) {
      auto it = by_name_.find(ParseTensorRef(f).name);
      if (it != by_name_.end()) fed_[static_cast<size_t>(it->second)] = true;
    }

    whole_graph_ = options_.fetches.empty() && options_.targets.empty();
    if (whole_graph_) {
      in_closure_.assign(n, true);
      return;
    }
    std::deque<int> frontier;
    std::vector<std::string> roots = options_.fetches;
    roots.insert(roots.end(), options_.targets.begin(),
                 options_.targets.end());
    for (const std::string& r : roots) {
      const std::string name = ParseTensorRef(r).name;
      auto it = by_name_.find(name);
      if (it == by_name_.end()) {
        Emit(Severity::kError, "GC003", name,
             "fetch/target '" + r + "' does not resolve to any node",
             "fetch an existing node");
        continue;
      }
      if (!in_closure_[static_cast<size_t>(it->second)]) {
        in_closure_[static_cast<size_t>(it->second)] = true;
        frontier.push_back(it->second);
      }
    }
    while (!frontier.empty()) {
      const int id = frontier.front();
      frontier.pop_front();
      if (fed_[static_cast<size_t>(id)]) continue;  // cut point
      for (const ResolvedEdge& e : nodes_[static_cast<size_t>(id)].edges) {
        if (!in_closure_[static_cast<size_t>(e.producer)]) {
          in_closure_[static_cast<size_t>(e.producer)] = true;
          frontier.push_back(e.producer);
        }
      }
    }
  }

  bool Scheduled(size_t i) const { return in_closure_[i] && !fed_[i]; }

  // GC012 (variable read with no initializer anywhere) and GC016 (Assign /
  // AssignAdd bound to a variable on another job/task, or to no variable).
  void LintVariables() {
    std::set<std::string> initialized;  // var names with an assign in graph
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const wire::NodeDef& nd = *nodes_[i].def;
      if (nd.op != "Assign" && nd.op != "AssignAdd") continue;
      auto it = nd.attrs.find("var");
      if (it == nd.attrs.end() ||
          it->second.kind != wire::AttrValue::Kind::kString) {
        continue;  // GC017 already reported by the inference fn
      }
      const std::string& var = it->second.s;
      initialized.insert(var);

      auto target = by_name_.find(var);
      if (target == by_name_.end()) {
        Emit(Severity::kError, "GC016", nd.name,
             nd.op + " references undefined variable '" + var + "'",
             "point the 'var' attr at a Variable node");
        continue;
      }
      const wire::NodeDef& vd =
          def_.nodes[static_cast<size_t>(target->second)];
      if (vd.op != "Variable") {
        Emit(Severity::kError, "GC016", nd.name,
             nd.op + " target '" + var + "' is op " + vd.op +
                 ", not a Variable",
             "point the 'var' attr at a Variable node");
        continue;
      }
      // Stateful-op placement rule: a variable lives in its task's resource
      // manager, so writer and variable must resolve to the same job/task.
      Result<DeviceName> wd = DeviceName::Parse(nd.device);
      Result<DeviceName> vdev = DeviceName::Parse(vd.device);
      if (wd.ok() && vdev.ok() && !wd->job.empty() && !vdev->job.empty() &&
          (wd->job != vdev->job ||
           (wd->task >= 0 && vdev->task >= 0 && wd->task != vdev->task))) {
        Emit(Severity::kError, "GC016", nd.name,
             nd.op + " on " + nd.device + " writes variable '" + var +
                 "' placed on " + vd.device +
                 ": resource state is task-local",
             "co-locate the writer with its variable");
      }
    }

    for (size_t i = 0; i < nodes_.size(); ++i) {
      const wire::NodeDef& nd = *nodes_[i].def;
      if (nd.op != "Variable" || !Scheduled(i)) continue;
      if (initialized.count(nd.name)) continue;
      // Only reads matter: does any scheduled node consume its output?
      bool read = false;
      for (size_t j = 0; j < nodes_.size() && !read; ++j) {
        if (!Scheduled(j)) continue;
        for (const ResolvedEdge& e : nodes_[j].edges) {
          if (!e.control && e.producer == static_cast<int>(i)) {
            read = true;
            break;
          }
        }
      }
      if (read) {
        Emit(Severity::kWarning, "GC012", nd.name,
             "variable is read but no Assign/AssignAdd in the graph "
             "initializes it",
             "run an Assign first (reading an uninitialized variable fails "
             "at runtime)");
      }
    }
  }

  // GC013 (guaranteed queue deadlock) and GC014 (queue dtype protocol).
  void LintQueues() {
    struct QueueUse {
      std::vector<size_t> enqueues;
      std::vector<size_t> dequeues;
      int64_t capacity = 0;  // 0 = unbounded (FIFOQueue semantics)
    };
    std::map<std::string, QueueUse> queues;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const wire::NodeDef& nd = *nodes_[i].def;
      if (nd.op != "QueueEnqueue" && nd.op != "QueueDequeue") continue;
      auto it = nd.attrs.find("queue");
      if (it == nd.attrs.end() ||
          it->second.kind != wire::AttrValue::Kind::kString) {
        continue;  // GC017 already reported
      }
      QueueUse& use = queues[it->second.s];
      if (nd.op == "QueueEnqueue") {
        use.enqueues.push_back(i);
      } else {
        use.dequeues.push_back(i);
      }
      auto cap = nd.attrs.find("capacity");
      if (cap != nd.attrs.end() &&
          cap->second.kind == wire::AttrValue::Kind::kInt) {
        use.capacity = cap->second.i;
      }
    }

    for (const auto& [queue, use] : queues) {
      // (a) A scheduled dequeue with no enqueue anywhere in the graph can
      // never be satisfied — the step is guaranteed to hang.
      if (use.enqueues.empty()) {
        for (size_t d : use.dequeues) {
          if (!Scheduled(d)) continue;
          Emit(Severity::kError, "GC013", nodes_[d].def->name,
               "dequeue on queue '" + queue +
                   "' can never complete: no QueueEnqueue for this queue "
                   "exists in the graph",
               "add an enqueue for the queue (possibly in another step's "
               "closure) or drop the dequeue");
        }
      }
      // (b) A step that pushes more items than a bounded queue holds and
      // never dequeues blocks forever once the capacity is reached.
      if (use.capacity > 0) {
        int64_t scheduled_enqueues = 0;
        for (size_t e : use.enqueues) {
          if (Scheduled(e)) ++scheduled_enqueues;
        }
        bool scheduled_dequeue = false;
        for (size_t d : use.dequeues) {
          if (Scheduled(d)) scheduled_dequeue = true;
        }
        if (scheduled_enqueues > use.capacity && !scheduled_dequeue) {
          Emit(Severity::kError, "GC013",
               nodes_[use.enqueues.front()].def->name,
               "step enqueues " + std::to_string(scheduled_enqueues) +
                   " items into queue '" + queue + "' of capacity " +
                   std::to_string(use.capacity) +
                   " with no dequeue in the same step: guaranteed deadlock",
               "dequeue in the same step or raise the queue capacity");
        }
      }
      // GC014: dtype protocol. Every value provably enqueued must agree,
      // and a dequeue that declares its dtype must match them.
      DType enqueued = DType::kInvalid;
      for (size_t e : use.enqueues) {
        const NodeInfo& info = nodes_[e];
        for (const ResolvedEdge& edge : info.edges) {
          if (edge.control) continue;
          const auto& pouts = outputs_[static_cast<size_t>(edge.producer)];
          const DType dt = static_cast<size_t>(edge.slot) < pouts.size()
                               ? pouts[static_cast<size_t>(edge.slot)].dtype
                               : DType::kInvalid;
          if (dt == DType::kInvalid) continue;
          if (enqueued != DType::kInvalid && enqueued != dt) {
            Emit(Severity::kError, "GC014", info.def->name,
                 "queue '" + queue + "' receives both " +
                     DTypeName(enqueued) + " and " + DTypeName(dt),
                 "enqueue one dtype per queue");
          }
          enqueued = dt;
        }
      }
      for (size_t d : use.dequeues) {
        auto attr = nodes_[d].def->attrs.find("dtype");
        if (attr == nodes_[d].def->attrs.end() ||
            attr->second.kind != wire::AttrValue::Kind::kType) {
          continue;
        }
        if (enqueued != DType::kInvalid && attr->second.type != enqueued) {
          Emit(Severity::kError, "GC014", nodes_[d].def->name,
               "dequeue declares " +
                   std::string(DTypeName(attr->second.type)) +
                   " but queue '" + queue + "' is enqueued with " +
                   DTypeName(enqueued),
               "align the dequeue dtype with the enqueued values");
        }
      }
    }
  }

  // GC011: whole-graph mode only — in closure mode, unreached nodes are
  // simply not part of the step, which is normal feed/fetch subsetting.
  void LintDeadNodes() {
    if (!whole_graph_) return;
    std::vector<int> consumers(nodes_.size(), 0);
    for (const NodeInfo& info : nodes_) {
      for (const ResolvedEdge& e : info.edges) {
        consumers[static_cast<size_t>(e.producer)]++;
      }
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const NodeInfo& info = nodes_[i];
      if (info.op_def == nullptr || info.op_def->is_stateful ||
          info.op_def->num_outputs == 0) {
        continue;
      }
      if (consumers[i] == 0) {
        Emit(Severity::kInfo, "GC011", info.def->name,
             "dead node: outputs are never consumed (fine if this is a "
             "fetch root)",
             "remove the node if it is not fetched");
      }
    }
  }

  const wire::GraphDef& def_;
  const AnalysisOptions& options_;
  std::vector<Diagnostic> diags_;
  std::map<std::string, int> by_name_;
  std::vector<NodeInfo> nodes_;
  std::vector<int> topo_order_;
  std::vector<std::vector<InferredTensor>> outputs_;
  std::vector<bool> in_closure_;
  std::vector<bool> fed_;
  bool whole_graph_ = true;
};

}  // namespace

GraphAnalysis VerifyGraph(const wire::GraphDef& def,
                          const AnalysisOptions& options) {
  return GraphChecker(def, options).Run();
}

std::vector<Diagnostic> VerifyPartitions(
    const std::map<std::string, wire::GraphDef>& partitions) {
  std::vector<Diagnostic> diags;
  struct Endpoint {
    std::string partition;
    std::string node;
    std::string key;
    std::string target;  // sends only
  };
  std::vector<Endpoint> sends;
  std::vector<Endpoint> recvs;
  // key -> partitions holding a _Recv / _Send with that key.
  std::map<std::string, std::set<std::string>> recv_parts;
  std::map<std::string, std::set<std::string>> send_targets;

  for (const auto& [addr, part] : partitions) {
    for (const wire::NodeDef& nd : part.nodes) {
      if (nd.op != "_Send" && nd.op != "_Recv") continue;
      auto key = nd.attrs.find("key");
      if (key == nd.attrs.end() ||
          key->second.kind != wire::AttrValue::Kind::kString) {
        diags.push_back({Severity::kError, "GC017", nd.name,
                         nd.op + " in partition " + addr +
                             " is missing its 'key' attr",
                         "the partitioner must stamp a rendezvous key"});
        continue;
      }
      if (nd.op == "_Send") {
        auto target = nd.attrs.find("target");
        const std::string t =
            target != nd.attrs.end() &&
                    target->second.kind == wire::AttrValue::Kind::kString
                ? target->second.s
                : "";
        sends.push_back({addr, nd.name, key->second.s, t});
        send_targets[key->second.s].insert(t);
      } else {
        recvs.push_back({addr, nd.name, key->second.s, ""});
        recv_parts[key->second.s].insert(addr);
      }
    }
  }

  for (const Endpoint& s : sends) {
    if (partitions.count(s.target) == 0) {
      diags.push_back({Severity::kError, "GC015", s.node,
                       "_Send in partition " + s.partition +
                           " targets unknown partition '" + s.target +
                           "' (key " + s.key + ")",
                       "every send must target a partitioned task"});
      continue;
    }
    const auto it = recv_parts.find(s.key);
    if (it == recv_parts.end() || it->second.count(s.target) == 0) {
      diags.push_back({Severity::kError, "GC015", s.node,
                       "_Send (key " + s.key + ") in partition " +
                           s.partition + " has no matching _Recv in target " +
                           s.target,
                       "the consumer-side partition dropped the edge"});
    }
  }
  for (const Endpoint& r : recvs) {
    const auto it = send_targets.find(r.key);
    if (it == send_targets.end() || it->second.count(r.partition) == 0) {
      diags.push_back({Severity::kError, "GC015", r.node,
                       "_Recv (key " + r.key + ") in partition " +
                           r.partition + " has no matching _Send",
                       "the producer-side partition dropped the edge"});
    }
  }
  return diags;
}

}  // namespace tfhpc::analysis
