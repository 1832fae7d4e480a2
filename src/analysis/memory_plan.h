// Static memory planning over a LivenessAnalysis: a deterministic greedy
// interval-coloring allocator assigns statically-shaped tensors to byte
// offsets in one per-step arena. The plan is the runtime's only decision
// about where an output lives: a planned output is handed its arena view,
// every other output is allocated from the pool by its kernel. It produces
//
//   * arena_bytes — the arena extent the executor allocates ONCE per step
//     and carves with zero-cost views (replacing per-op pool traffic);
//   * static_peak_bytes — a compile-time upper bound on the step's
//     limiter-charged footprint, sound under ANY concurrent interleaving
//     (see the soundness note below), used by serving admission and GC018;
//   * per-node waterlines — the serialized-schedule high-water mark after
//     each node, for the graphcheck --memory report;
//   * an alias set — provably-safe in-place reuses (single consumer,
//     elementwise overwrite, same dtype/shape, last use), the runtime's only
//     in-place mechanism.
//
// Arena eligibility is deliberately strict. A tensor is planned only when:
//   - its producer is scheduled and not fed (fed storage is caller-owned);
//   - its dtype/shape are fully known (bytes >= 0) and positive;
//   - it is not fetched (fetched tensors outlive the step);
//   - its producer's op declares overwrites_outputs (the kernel writes the
//     buffer it is handed — Variable/Identity/Assign pass through or retain
//     foreign buffers and must not receive arena views);
//   - EVERY data consumer's op also declares overwrites_outputs. This is the
//     escape fence: ops without it (Assign, Identity, queue/send ops) may
//     retain or re-expose an input buffer beyond the step, which would let
//     an arena view outlive its planned interval.
//
// Reuse rule (why this is safe under concurrency): offsets are reused only
// when every use of the previous occupant — producer and all data/control
// consumers — happens-before the new producer (LivenessAnalysis::
// DeadBefore). Tensors NOT ordered by happens-before therefore always get
// disjoint byte ranges, so any antichain of simultaneously-live tensors fits
// inside arena_bytes regardless of how the executor interleaves them.
//
// static_peak_bytes = arena_bytes + sum of statically-known bytes of every
// non-planned, non-fed scheduled tensor. Non-planned tensors come from the
// pool and are charged individually; summing them (no reuse assumed) keeps
// the bound sound however the executor interleaves them. Dynamic tensors
// (bytes unknown) are counted and reported but cannot be bounded — the plan
// says so via dynamic_tensors > 0. Placements are aligned to
// Buffer::kAlignment, so every arena view keeps the SIMD alignment
// invariant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/liveness.h"
#include "core/dtype.h"
#include "core/shape.h"

namespace tfhpc::analysis {

// One arena placement: output `slot` of node `node`, a `dtype` tensor of
// `shape`, lives at [offset, offset + bytes) in the step arena.
struct PlannedTensor {
  std::string node;
  int slot = 0;
  DType dtype = DType::kInvalid;
  Shape shape;
  int64_t offset = 0;
  int64_t bytes = 0;
  // Set when this placement aliases a consumed input in place: the planner
  // proved the overwrite safe and gave the output the input's offset.
  bool in_place = false;
};

class MemoryPlan {
 public:
  int64_t arena_bytes() const { return arena_bytes_; }
  int64_t static_peak_bytes() const { return static_peak_bytes_; }
  // Σ bytes of statically-known tensors served from the pool (not planned).
  int64_t pool_bytes() const { return pool_bytes_; }
  int num_planned() const { return static_cast<int>(planned_.size()); }
  int num_in_place() const { return in_place_; }
  // Scheduled tensors whose extent is statically unknown: they fall back to
  // the pool at runtime and the static peak does not cover them.
  int dynamic_tensors() const { return dynamic_tensors_; }

  const std::vector<PlannedTensor>& planned() const { return planned_; }
  const PlannedTensor* Find(const std::string& node, int slot) const;

  // Serialized-schedule live bytes after node i completes (arena-planned +
  // pool-known tensors alive at that point). Reporting only: the concurrent
  // bound is static_peak_bytes().
  const std::vector<int64_t>& waterlines() const { return waterlines_; }
  // Schedule position of the serialized high-water mark.
  int peak_position() const { return peak_position_; }

  // Human-readable per-node waterline table (graphcheck --memory).
  std::string ToString(const LivenessAnalysis& live) const;

  // Deterministic: same liveness in, same plan out.
  static MemoryPlan Plan(const LivenessAnalysis& live);

 private:
  friend class MemoryPlanner;

  std::vector<PlannedTensor> planned_;
  std::vector<int64_t> waterlines_;
  int64_t arena_bytes_ = 0;
  int64_t static_peak_bytes_ = 0;
  int64_t pool_bytes_ = 0;
  int peak_position_ = 0;
  int in_place_ = 0;
  int dynamic_tensors_ = 0;
};

// Memory lints over a computed plan:
//   GC018 (ERROR)   static peak exceeds `budget_bytes` (skipped when
//                   budget_bytes <= 0). Strict sessions reject at compile
//                   time instead of OOMing mid-step.
//   GC019 (WARNING) an Assign/AssignAdd overwrites a variable whose prior
//                   value has a consumer not ordered before the writer —
//                   the consumer races the in-place overwrite.
//   GC020 (INFO)    report-only: top-k lifetime-stretching tensors by
//                   (lifetime span × bytes), with scheduling hints.
std::vector<Diagnostic> LintMemory(const wire::GraphDef& def,
                                   const LivenessAnalysis& live,
                                   const MemoryPlan& plan,
                                   int64_t budget_bytes, int top_k = 3);

}  // namespace tfhpc::analysis
