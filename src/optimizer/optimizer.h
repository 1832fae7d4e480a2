// Grappler-lite: the graph-optimizer pass pipeline Session::Prepare runs
// behind its signature cache (and DistributedSession runs before
// partitioning). TensorFlow's whitepaper makes graph rewriting — CSE,
// dead-node pruning, operation fusion — a core runtime capability; tfhpc
// implements the same shapes over wire::GraphDef so passes compose with
// serialization, tools and tests.
//
// Pipeline (in order):
//   1. const_fold        evaluate const-only subgraphs via the CPU kernels
//   2. cse               merge structurally identical stateless nodes
//   3. dead_node_elim    drop nodes outside the fetch/target closure
//   4. fuse_elementwise  (aggressive) collapse elementwise chains into one
//                        FusedElementwise node, proven safe by GraphCheck
//                        shape inference
//
// Safety invariants every pass obeys:
//   - nodes named in the run signature (feeds/fetches/targets) keep their
//     name and observable behavior; fed nodes are never treated as
//     constants (their value is overridden at Run time);
//   - stateful and blocking ops (variables, queues, send/recv) are never
//     folded, merged or fused;
//   - the pipeline is idempotent: running it twice yields the same graph;
//   - the result is re-verified (VerifyAndOptimize) — an optimizer bug is
//     a compile failure, not a wrong answer (GraphCheck is the regression
//     oracle).
//
// dead_node_elim is the only graph pass that prunes. Cross-task edges are
// not rewritten here: the partitioner gives each one its own _Send/_Recv
// pair (src/distrib/partition.h).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "graph/graph.h"

namespace tfhpc::optimizer {

enum class OptimizerLevel {
  kOff,         // pipeline disabled
  kBasic,       // const_fold + cse + dead_node_elim
  kAggressive,  // basic + elementwise fusion
};

const char* OptimizerLevelName(OptimizerLevel level);
Result<OptimizerLevel> ParseOptimizerLevel(const std::string& name);

struct PipelineOptions {
  OptimizerLevel level = OptimizerLevel::kBasic;
  // The run signature the optimized graph will execute under. When fetches
  // and targets are both empty the pipeline runs in whole-graph mode (the
  // graphcheck CLI): dead-node elimination roots at every terminal node
  // plus every stateful op, so queues/variables/sends survive.
  std::vector<std::string> feeds;
  std::vector<std::string> fetches;
  std::vector<std::string> targets;
  // Additional node names that must survive by name (never merged away by
  // CSE or absorbed into a fused chain) WITHOUT anchoring dead-node
  // elimination the way fetches/targets do. DistributedSession uses this in
  // whole-graph mode for every name a client may later feed or fetch.
  std::vector<std::string> preserve;
  // Constant-folding size ceiling (see runtime/const_fold.h).
  int64_t max_const_bytes = 16 << 20;
};

// One pass's effect, for tools and tests.
struct PassReport {
  std::string name;
  int nodes_before = 0;
  int nodes_after = 0;
  int edges_before = 0;
  int edges_after = 0;
  // Pass-specific count: nodes folded / merged / removed / fused away.
  int changed = 0;
};

struct PipelineResult {
  wire::GraphDef graph;
  std::vector<PassReport> passes;
};

// Runs the pipeline at `options.level` over `def`. kOff returns the graph
// unchanged with no reports. The input must parse as a Graph (registered
// ops, resolvable inputs); callers are expected to VerifyGraph the result.
Result<PipelineResult> RunPassPipeline(const wire::GraphDef& def,
                                       const PipelineOptions& options);

// What VerifyAndOptimize hands a compile.
struct CheckedGraph {
  // GraphCheck's findings on the input graph: the ones a caller reports.
  std::vector<analysis::Diagnostic> findings;
  // The pipeline's rewrite; unset when the input had ERROR findings or the
  // level is kOff, and the input is what compiles.
  std::optional<wire::GraphDef> rewrite;
  // GraphCheck over what compiles: the rewrite, else the input.
  analysis::GraphAnalysis analysis;
};

// The compile front end Session and DistributedSession share: GraphCheck
// over `def` under `check`; then, when that found no ERROR and
// `options.level` is not kOff, the pass pipeline and GraphCheck again over
// its rewrite. Optimizing only a clean input lets the second check blame
// the optimizer alone: a rewrite with an ERROR finding fails with kInternal
// and never runs.
Result<CheckedGraph> VerifyAndOptimize(const wire::GraphDef& def,
                                       const analysis::AnalysisOptions& check,
                                       const PipelineOptions& options);

}  // namespace tfhpc::optimizer
