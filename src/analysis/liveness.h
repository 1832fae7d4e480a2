// Static tensor liveness over a GraphDef closure: for every output tensor of
// every scheduled node, when does it come alive and when is it provably dead?
//
// The schedule mirrors Executor::Compile exactly — the fetch/target closure
// with feeds as cut points (Graph::ReachableTo), in topological order — so
// the intervals computed here describe the tensors the executor will
// actually materialize. (The walk runs over the GraphDef, not a Graph, so it
// can also analyse graphs Graph::AddNode would reject.) Lifetimes:
//
//   * fed tensors are live from step start (the caller owns them before the
//     first node runs);
//   * fetched tensors are live to step end (they leave the step);
//   * control-edge-only consumers extend a lifetime conservatively — every
//     output slot of the producer stays live until the control consumer has
//     completed (the edge orders completion, not one slot's value);
//   * a tensor with no consumers dies with its producer.
//
// Because the executor runs independent nodes CONCURRENTLY, the serialized
// interval [def, last_use] is not a safe reuse criterion by itself: two
// tensors from parallel chains can be simultaneously live even when their
// serialized intervals are disjoint. LivenessAnalysis therefore also carries
// the happens-before relation (ancestor bitsets over the schedule), and
// DeadBefore() is the partial-order test the memory planner
// (analysis/memory_plan.h) uses: tensor B may occupy A's bytes only when
// every use of A — producer included — completes-before B's producer runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/shape_inference.h"
#include "analysis/verifier.h"
#include "core/status.h"
#include "wire/messages.h"

namespace tfhpc::analysis {

// One output tensor's static facts: identity, extent (when known) and the
// schedule positions that define its lifetime.
struct TensorLife {
  std::string node;  // producer node name
  int slot = 0;      // producer output slot

  int def = 0;       // schedule position of the producer
  int last = 0;      // schedule position of the last consumer (>= def)
  bool fed = false;      // live from step start (caller-owned storage)
  bool fetched = false;  // live to step end (leaves the step)

  // Schedule positions whose nodes touch this tensor: the producer plus
  // every data consumer, plus control-edge consumers of the producer
  // (conservative — a control edge orders the whole node, so it pins every
  // output slot). Reuse of this tensor's bytes requires all of these to
  // happen-before the reuser.
  std::vector<int> uses;
  // The subset of uses that receive this tensor as a data input (the nodes
  // whose kernels can actually see the buffer). The planner's escape fence
  // inspects these: every data consumer must be an overwrite-declaring op
  // before the tensor may live in the arena.
  std::vector<int> data_uses;

  // Statically known extent; bytes < 0 marks a dynamic/unknown tensor.
  DType dtype = DType::kInvalid;
  Shape shape;
  int64_t bytes = -1;

  bool statically_sized() const { return bytes >= 0; }
};

// Liveness facts for one (graph, signature) pair.
class LivenessAnalysis {
 public:
  // Scheduled closure node names in topological order. Fed nodes are
  // included (they occupy a position, complete at step start).
  const std::vector<std::string>& schedule() const { return schedule_; }
  const std::string& node_name(int pos) const {
    return schedule_[static_cast<size_t>(pos)];
  }
  const std::string& node_op(int pos) const {
    return ops_[static_cast<size_t>(pos)];
  }
  int num_nodes() const { return static_cast<int>(schedule_.size()); }
  // Schedule position of a closure node; -1 when pruned/unknown.
  int PositionOf(const std::string& name) const;

  const std::vector<TensorLife>& tensors() const { return tensors_; }
  // Tensor ids (indexes into tensors()) produced at schedule position `pos`.
  const std::vector<int>& tensors_of(int pos) const {
    return node_tensors_[static_cast<size_t>(pos)];
  }
  const TensorLife* Find(const std::string& node, int slot) const;

  // True when node at schedule position `a` provably completes before the
  // node at `b` starts (a is a proper ancestor of b through data or control
  // edges). Reflexively false: a node does not happen-before itself.
  bool HappensBefore(int a, int b) const;

  // The planner's reuse test: every use of `t` (producer and all consumers)
  // happens-before schedule position `pos`. Fed and fetched tensors are
  // never disjoint from anything (they span the step boundary).
  bool DeadBefore(const TensorLife& t, int pos) const;

  // Builds liveness for the signature's fetch/target closure (feeds cut the
  // walk, exactly like Executor::Compile). With no fetches/targets the
  // whole graph is analyzed (graphcheck CLI mode) and nothing is marked
  // fetched. `annotations` are VerifyGraph's inferred output facts; slots
  // without a fully-known annotation become dynamic (bytes = -1).
  // Fails on structural breakage (unknown ops, unresolvable inputs, cycles)
  // — run VerifyGraph first and only call this on error-free graphs.
  static Result<LivenessAnalysis> Compute(
      const wire::GraphDef& def, const AnalysisOptions& options,
      const std::map<std::string, std::vector<InferredTensor>>& annotations);

 private:
  std::vector<std::string> schedule_;
  std::vector<std::string> ops_;
  std::map<std::string, int> position_;
  std::vector<TensorLife> tensors_;
  std::vector<std::vector<int>> node_tensors_;  // per schedule position
  std::map<std::pair<std::string, int>, int> tensor_index_;
  // ancestors_[i] = bitset (over schedule positions) of proper ancestors.
  std::vector<std::vector<uint64_t>> ancestors_;
  size_t words_ = 0;
};

}  // namespace tfhpc::analysis
