#include "optimizer/fusion.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "optimizer/fused_spec.h"

namespace tfhpc::optimizer {
namespace {

bool IsFusableOp(const std::string& op) {
  return op == "Add" || op == "Sub" || op == "Mul" || op == "Div" ||
         op == "Sqrt" || op == "Neg" || op == "Axpy" || op == "Cast";
}

// The fused kernel implements f32/f64 arithmetic (and casts between them).
bool FusableDtype(DType d) { return d == DType::kF32 || d == DType::kF64; }

}  // namespace

Result<wire::GraphDef> FuseElementwiseChains(const wire::GraphDef& def,
                                             const PipelineOptions& options,
                                             int* chains_fused,
                                             int* nodes_fused_away) {
  *chains_fused = 0;
  *nodes_fused_away = 0;

  // Shape inference is the safety oracle: only facts it proves fully known
  // make a node fusable. A graph it rejects is left untouched — the
  // verifier gate after the pipeline owns reporting it.
  analysis::AnalysisOptions vopts;
  vopts.feeds = options.feeds;
  vopts.fetches = options.fetches;
  vopts.targets = options.targets;
  const analysis::GraphAnalysis a = analysis::VerifyGraph(def, vopts);
  if (a.has_errors()) return def;

  const int n = static_cast<int>(def.nodes.size());
  std::map<std::string, std::vector<int>> data_consumers;  // one entry per use
  std::set<std::string> control_consumed;
  std::set<std::string> slot_consumed;  // referenced with slot != 0
  for (int i = 0; i < n; ++i) {
    for (const std::string& in : def.nodes[static_cast<size_t>(i)].inputs) {
      const TensorRef r = ParseTensorRef(in);
      if (r.control) {
        control_consumed.insert(r.name);
      } else {
        data_consumers[r.name].push_back(i);
        if (r.slot != 0) slot_consumed.insert(r.name);
      }
    }
  }

  std::set<std::string> protected_names;  // whole signature: never absorbed
  std::set<std::string> fed;              // feeds: never even a chain tail
  for (const std::string& f : options.feeds) {
    fed.insert(ParseTensorRef(f).name);
    protected_names.insert(ParseTensorRef(f).name);
  }
  for (const std::string& f : options.fetches)
    protected_names.insert(ParseTensorRef(f).name);
  for (const std::string& t : options.targets)
    protected_names.insert(ParseTensorRef(t).name);
  for (const std::string& p : options.preserve)
    protected_names.insert(ParseTensorRef(p).name);

  // Fully-known single-output fact for a node, or null.
  auto out_fact =
      [&](const std::string& name) -> const analysis::InferredTensor* {
    auto it = a.annotations.find(name);
    if (it == a.annotations.end() || it->second.size() != 1) return nullptr;
    const analysis::InferredTensor& t = it->second[0];
    return t.fully_known() ? &t : nullptr;
  };

  // Can `nd` be a chain stage consuming `prev` (empty = chain head)? `S` is
  // the chain shape (null when the head defines it).
  auto stage_ok = [&](const wire::NodeDef& nd, const std::string& prev,
                      const analysis::InferredShape* S) -> bool {
    if (!IsFusableOp(nd.op)) return false;
    const analysis::InferredTensor* out = out_fact(nd.name);
    if (out == nullptr || !FusableDtype(out->dtype)) return false;
    if (S != nullptr && !(out->shape == *S)) return false;
    const analysis::InferredShape& chain_shape = S != nullptr ? *S : out->shape;
    int prev_uses = 0;
    for (const std::string& in : nd.inputs) {
      const TensorRef r = ParseTensorRef(in);
      if (r.control || r.slot != 0) return false;
      if (!prev.empty() && r.name == prev) {
        prev_uses++;
        continue;
      }
      const analysis::InferredTensor* ext = out_fact(r.name);
      if (ext == nullptr || !FusableDtype(ext->dtype)) return false;
      // External operands must be chain-shaped or scalar (the kernels'
      // broadcast contract), and — except through a Cast — dtype-equal to
      // the stage result.
      const bool scalar = ext->shape.rank_known && ext->shape.rank() == 0;
      if (!(ext->shape == chain_shape) && !scalar) return false;
      if (nd.op != "Cast" && ext->dtype != out->dtype) return false;
    }
    if (nd.op == "Cast" && nd.attrs.count("to") == 0) return false;
    return prev.empty() || prev_uses > 0;
  };

  // Can reduction node `nd` (Dot/ReduceSum) absorb into a chain whose tail
  // is `prev` with chain shape `S`? The reduction becomes the chain's final
  // stage: it must consume the tail, and any external operand must be a
  // fully-known chain-shaped tensor of the tail's dtype (Dot additionally
  // needs a rank-1 chain — it is an inner product).
  auto reduction_ok = [&](const wire::NodeDef& nd, const std::string& prev,
                          const analysis::InferredShape& S) -> bool {
    const analysis::InferredTensor* out = out_fact(nd.name);
    if (out == nullptr || !FusableDtype(out->dtype)) return false;
    const analysis::InferredTensor* tail_fact = out_fact(prev);
    if (tail_fact == nullptr) return false;
    if (nd.op == "Dot" && !(S.rank_known && S.rank() == 1)) return false;
    int prev_uses = 0;
    for (const std::string& in : nd.inputs) {
      const TensorRef r = ParseTensorRef(in);
      if (r.control || r.slot != 0) return false;
      if (r.name == prev) {
        prev_uses++;
        continue;
      }
      const analysis::InferredTensor* ext = out_fact(r.name);
      if (ext == nullptr || ext->dtype != tail_fact->dtype) return false;
      if (!(ext->shape == S)) return false;
    }
    return prev_uses > 0;
  };

  // Greedy chain growth in topological order (GraphDefs in this codebase
  // are construction-ordered: inputs precede consumers).
  std::vector<bool> absorbed_or_tail(static_cast<size_t>(n), false);
  std::vector<std::vector<int>> chains;
  for (int i = 0; i < n; ++i) {
    if (absorbed_or_tail[static_cast<size_t>(i)]) continue;
    const wire::NodeDef& head = def.nodes[static_cast<size_t>(i)];
    // Every absorbed node (head included) loses its name, so no signature
    // name may start a chain's interior.
    if (protected_names.count(head.name) != 0) continue;
    if (!stage_ok(head, "", nullptr)) continue;
    const analysis::InferredShape S = out_fact(head.name)->shape;

    std::vector<int> chain{i};
    for (;;) {
      const wire::NodeDef& tail = def.nodes[static_cast<size_t>(chain.back())];
      // To extend past `tail` it must become interior: exactly one
      // consuming node, no control consumers, not observable by name.
      if (protected_names.count(tail.name) != 0) break;
      if (control_consumed.count(tail.name) != 0 ||
          slot_consumed.count(tail.name) != 0) {
        break;
      }
      auto uit = data_consumers.find(tail.name);
      if (uit == data_consumers.end()) break;
      const std::set<int> distinct(uit->second.begin(), uit->second.end());
      if (distinct.size() != 1) break;
      const int next = *distinct.begin();
      if (absorbed_or_tail[static_cast<size_t>(next)]) break;
      const wire::NodeDef& cand = def.nodes[static_cast<size_t>(next)];
      if (cand.device != head.device) break;
      // A fed tail would lose its feed override inside the fused compute.
      if (fed.count(cand.name) != 0) break;
      if (!stage_ok(cand, tail.name, &S)) break;
      chain.push_back(next);
    }
    // A trailing Dot/ReduceSum consuming the tail collapses the chain to a
    // scalar inside the same kernel sweep (CG's axpy+dot becomes one pass).
    // Same interiority rules as the grow loop; the reduction becomes the
    // new tail and keeps its name.
    {
      const wire::NodeDef& tail = def.nodes[static_cast<size_t>(chain.back())];
      if (protected_names.count(tail.name) == 0 &&
          control_consumed.count(tail.name) == 0 &&
          slot_consumed.count(tail.name) == 0) {
        auto uit = data_consumers.find(tail.name);
        if (uit != data_consumers.end()) {
          const std::set<int> distinct(uit->second.begin(), uit->second.end());
          if (distinct.size() == 1) {
            const int next = *distinct.begin();
            const wire::NodeDef& cand = def.nodes[static_cast<size_t>(next)];
            if (!absorbed_or_tail[static_cast<size_t>(next)] &&
                IsFusedReduction(cand.op) && cand.device == head.device &&
                fed.count(cand.name) == 0 &&
                reduction_ok(cand, tail.name, S)) {
              chain.push_back(next);
            }
          }
        }
      }
    }
    if (chain.size() < 2) continue;
    for (int idx : chain) absorbed_or_tail[static_cast<size_t>(idx)] = true;
    chains.push_back(std::move(chain));
  }

  if (chains.empty()) return def;

  // Emit one FusedElementwise per chain, at the tail's position and under
  // the tail's name, so downstream consumers and fetches are untouched.
  std::map<int, wire::NodeDef> fused_by_tail;
  std::set<int> dropped;
  for (const std::vector<int>& chain : chains) {
    const wire::NodeDef& tail = def.nodes[static_cast<size_t>(chain.back())];
    wire::NodeDef f;
    f.name = tail.name;
    f.op = "FusedElementwise";
    f.device = tail.device;

    std::vector<std::string> ext;  // distinct external refs, first-use order
    std::map<std::string, int> ext_index;
    std::string ops;
    std::string args;
    for (size_t k = 0; k < chain.size(); ++k) {
      const wire::NodeDef& nd = def.nodes[static_cast<size_t>(chain[k])];
      if (k > 0) {
        ops += ';';
        args += ';';
      }
      ops += nd.op;
      const std::string prev =
          k > 0 ? def.nodes[static_cast<size_t>(chain[k - 1])].name : "";
      for (size_t oi = 0; oi < nd.inputs.size(); ++oi) {
        if (oi > 0) args += ',';
        const TensorRef r = ParseTensorRef(nd.inputs[oi]);
        if (!prev.empty() && r.name == prev) {
          args += 'p';
          continue;
        }
        auto [it, inserted] =
            ext_index.emplace(nd.inputs[oi], static_cast<int>(ext.size()));
        if (inserted) ext.push_back(nd.inputs[oi]);
        args += 'i' + std::to_string(it->second);
      }
      if (nd.op == "Cast") {
        f.attrs["to_" + std::to_string(k)] = nd.attrs.at("to");
      }
    }
    f.inputs = std::move(ext);
    f.attrs["ops"] = wire::AttrValue::Str(ops);
    f.attrs["args"] = wire::AttrValue::Str(args);
    fused_by_tail.emplace(chain.back(), std::move(f));
    for (size_t k = 0; k + 1 < chain.size(); ++k) dropped.insert(chain[k]);
    (*chains_fused)++;
    *nodes_fused_away += static_cast<int>(chain.size()) - 1;
  }

  wire::GraphDef out;
  out.version = def.version;
  out.nodes.reserve(def.nodes.size() - dropped.size());
  for (int i = 0; i < n; ++i) {
    auto fit = fused_by_tail.find(i);
    if (fit != fused_by_tail.end()) {
      out.nodes.push_back(std::move(fit->second));
    } else if (dropped.count(i) == 0) {
      out.nodes.push_back(def.nodes[static_cast<size_t>(i)]);
    }
  }
  return out;
}

}  // namespace tfhpc::optimizer
