#include "analysis/liveness.h"

#include <algorithm>
#include <deque>
#include <set>

#include "core/dtype.h"
#include "graph/graph.h"

namespace tfhpc::analysis {
namespace {

struct Edge {
  int producer = -1;  // graph index
  int slot = 0;
  bool control = false;
};

}  // namespace

int LivenessAnalysis::PositionOf(const std::string& name) const {
  auto it = position_.find(name);
  return it == position_.end() ? -1 : it->second;
}

const TensorLife* LivenessAnalysis::Find(const std::string& node,
                                         int slot) const {
  auto it = tensor_index_.find({node, slot});
  return it == tensor_index_.end()
             ? nullptr
             : &tensors_[static_cast<size_t>(it->second)];
}

bool LivenessAnalysis::HappensBefore(int a, int b) const {
  if (a < 0 || b < 0) return false;
  const auto& anc = ancestors_[static_cast<size_t>(b)];
  return (anc[static_cast<size_t>(a) / 64] >>
          (static_cast<size_t>(a) % 64)) &
         1u;
}

bool LivenessAnalysis::DeadBefore(const TensorLife& t, int pos) const {
  if (t.fed || t.fetched) return false;
  for (int u : t.uses) {
    if (!HappensBefore(u, pos)) return false;
  }
  return true;
}

Result<LivenessAnalysis> LivenessAnalysis::Compute(
    const wire::GraphDef& def, const AnalysisOptions& options,
    const std::map<std::string, std::vector<InferredTensor>>& annotations) {
  // ---- index the graph ------------------------------------------------------
  std::map<std::string, int> by_name;
  for (size_t i = 0; i < def.nodes.size(); ++i) {
    auto [it, inserted] = by_name.emplace(def.nodes[i].name,
                                          static_cast<int>(i));
    if (!inserted) {
      return InvalidArgument("liveness: duplicate node name '" +
                             def.nodes[i].name + "'");
    }
  }

  std::set<std::string> fed_names;
  for (const std::string& f : options.feeds) {
    fed_names.insert(ParseTensorRef(f).name);
  }

  // Resolved inputs per graph node; fed nodes get none (cut points).
  std::vector<std::vector<Edge>> edges(def.nodes.size());
  for (size_t i = 0; i < def.nodes.size(); ++i) {
    const wire::NodeDef& nd = def.nodes[i];
    if (fed_names.count(nd.name)) continue;
    for (const std::string& input : nd.inputs) {
      const TensorRef ref = ParseTensorRef(input);
      auto it = by_name.find(ref.name);
      if (ref.slot < 0 || it == by_name.end()) {
        return InvalidArgument("liveness: node '" + nd.name +
                               "' input '" + input + "' does not resolve");
      }
      Edge e;
      e.producer = it->second;
      e.slot = ref.slot;
      e.control = ref.control;
      edges[i].push_back(e);
    }
  }

  // ---- closure from fetch/target roots (whole graph when none) --------------
  const bool whole_graph = options.fetches.empty() && options.targets.empty();
  std::vector<bool> in_closure(def.nodes.size(), whole_graph);
  if (!whole_graph) {
    std::deque<int> work;
    auto add_root = [&](const std::string& ref) -> Status {
      auto it = by_name.find(ParseTensorRef(ref).name);
      if (it == by_name.end()) {
        return InvalidArgument("liveness: root '" + ref +
                               "' names no graph node");
      }
      if (!in_closure[static_cast<size_t>(it->second)]) {
        in_closure[static_cast<size_t>(it->second)] = true;
        work.push_back(it->second);
      }
      return Status::OK();
    };
    for (const std::string& f : options.fetches) {
      TFHPC_RETURN_IF_ERROR(add_root(f));
    }
    for (const std::string& t : options.targets) {
      TFHPC_RETURN_IF_ERROR(add_root(t));
    }
    while (!work.empty()) {
      const int n = work.front();
      work.pop_front();
      for (const Edge& e : edges[static_cast<size_t>(n)]) {
        if (!in_closure[static_cast<size_t>(e.producer)]) {
          in_closure[static_cast<size_t>(e.producer)] = true;
          work.push_back(e.producer);
        }
      }
    }
  }

  // ---- deterministic Kahn topo sort over the closure ------------------------
  // Ready ties break by graph definition order, matching the executor's
  // ordered-set iteration, so the schedule is stable across compiles.
  std::vector<int> pending(def.nodes.size(), 0);
  std::vector<std::vector<int>> consumers(def.nodes.size());
  for (size_t i = 0; i < def.nodes.size(); ++i) {
    if (!in_closure[i]) continue;
    for (const Edge& e : edges[i]) {
      if (!in_closure[static_cast<size_t>(e.producer)]) continue;
      ++pending[i];
      consumers[static_cast<size_t>(e.producer)].push_back(
          static_cast<int>(i));
    }
  }

  LivenessAnalysis live;
  std::set<int> ready;
  size_t closure_size = 0;
  for (size_t i = 0; i < def.nodes.size(); ++i) {
    if (!in_closure[i]) continue;
    ++closure_size;
    if (pending[i] == 0) ready.insert(static_cast<int>(i));
  }
  std::vector<int> graph_to_pos(def.nodes.size(), -1);
  while (!ready.empty()) {
    const int n = *ready.begin();
    ready.erase(ready.begin());
    graph_to_pos[static_cast<size_t>(n)] =
        static_cast<int>(live.schedule_.size());
    live.schedule_.push_back(def.nodes[static_cast<size_t>(n)].name);
    live.ops_.push_back(def.nodes[static_cast<size_t>(n)].op);
    for (int c : consumers[static_cast<size_t>(n)]) {
      if (--pending[static_cast<size_t>(c)] == 0) ready.insert(c);
    }
  }
  if (live.schedule_.size() != closure_size) {
    return InvalidArgument(
        "liveness: graph closure contains a cycle (" +
        std::to_string(closure_size - live.schedule_.size()) +
        " nodes unschedulable)");
  }
  for (size_t p = 0; p < live.schedule_.size(); ++p) {
    live.position_.emplace(live.schedule_[p], static_cast<int>(p));
  }

  // ---- ancestor reachability bitsets ----------------------------------------
  const size_t n = live.schedule_.size();
  live.words_ = (n + 63) / 64;
  live.ancestors_.assign(n, std::vector<uint64_t>(live.words_, 0));
  for (size_t gi = 0; gi < def.nodes.size(); ++gi) {
    if (!in_closure[gi]) continue;
    const int pos = graph_to_pos[gi];
    auto& anc = live.ancestors_[static_cast<size_t>(pos)];
    for (const Edge& e : edges[gi]) {
      if (!in_closure[static_cast<size_t>(e.producer)]) continue;
      const int p = graph_to_pos[static_cast<size_t>(e.producer)];
      const auto& panc = live.ancestors_[static_cast<size_t>(p)];
      for (size_t w = 0; w < live.words_; ++w) anc[w] |= panc[w];
      anc[static_cast<size_t>(p) / 64] |= uint64_t{1}
                                          << (static_cast<size_t>(p) % 64);
    }
  }

  // ---- per-tensor lives -----------------------------------------------------
  std::set<std::pair<std::string, int>> fetched;
  for (const std::string& f : options.fetches) {
    const TensorRef ref = ParseTensorRef(f);
    fetched.emplace(ref.name, ref.slot);
  }

  live.node_tensors_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const std::string& name = live.schedule_[p];
    const OpDef* op_def = OpRegistry::Global().Lookup(live.ops_[p]);
    if (op_def == nullptr) {
      return InvalidArgument("liveness: op '" + live.ops_[p] +
                             "' of node '" + name + "' is not registered");
    }
    auto ann = annotations.find(name);
    for (int slot = 0; slot < op_def->num_outputs; ++slot) {
      TensorLife t;
      t.node = name;
      t.slot = slot;
      t.def = static_cast<int>(p);
      t.last = static_cast<int>(p);
      t.fed = fed_names.count(name) > 0;
      t.fetched = fetched.count({name, slot}) > 0;
      t.uses.push_back(static_cast<int>(p));
      if (ann != annotations.end() &&
          slot < static_cast<int>(ann->second.size()) &&
          ann->second[static_cast<size_t>(slot)].fully_known()) {
        const InferredTensor& it = ann->second[static_cast<size_t>(slot)];
        t.dtype = it.dtype;
        t.shape = it.shape.ToShape();
        t.bytes = t.shape.num_elements() *
                  static_cast<int64_t>(DTypeSize(t.dtype));
      }
      const int id = static_cast<int>(live.tensors_.size());
      live.tensor_index_.emplace(std::make_pair(name, slot), id);
      live.node_tensors_[p].push_back(id);
      live.tensors_.push_back(std::move(t));
    }
  }

  // Consumers extend lifetimes: data edges pin one slot, control edges pin
  // every slot of the producer (they order node completion, not a value).
  for (size_t gi = 0; gi < def.nodes.size(); ++gi) {
    if (!in_closure[gi]) continue;
    const int cpos = graph_to_pos[gi];
    for (const Edge& e : edges[gi]) {
      if (!in_closure[static_cast<size_t>(e.producer)]) continue;
      const int ppos = graph_to_pos[static_cast<size_t>(e.producer)];
      for (int id : live.node_tensors_[static_cast<size_t>(ppos)]) {
        TensorLife& t = live.tensors_[static_cast<size_t>(id)];
        if (!e.control && t.slot != e.slot) continue;
        t.uses.push_back(cpos);
        if (!e.control) t.data_uses.push_back(cpos);
        t.last = std::max(t.last, cpos);
      }
    }
  }
  for (TensorLife& t : live.tensors_) {
    std::sort(t.uses.begin(), t.uses.end());
    t.uses.erase(std::unique(t.uses.begin(), t.uses.end()), t.uses.end());
    std::sort(t.data_uses.begin(), t.data_uses.end());
    t.data_uses.erase(std::unique(t.data_uses.begin(), t.data_uses.end()),
                      t.data_uses.end());
    if (t.fetched) t.last = static_cast<int>(n) - 1;
  }

  return live;
}

}  // namespace tfhpc::analysis
