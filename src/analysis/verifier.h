// GraphCheck: static verification, shape/dtype inference and dataflow lints
// over a wire::GraphDef — run before anything executes. Three layers:
//
//  1. Structural verifier: unique names (GC001), registered ops (GC002),
//     resolvable inputs (GC003), output slots in range (GC004), OpDef arity
//     (GC005), cycle detection with a readable cycle trace (GC006), valid
//     device strings (GC007), control-edge sanity (GC008).
//  2. Shape & dtype inference (analysis/shape_inference.h) in topological
//     order, rejecting provable conflicts (GC009/GC010/GC017) and producing
//     per-node output annotations the memory planner places tensors by.
//  3. Dataflow lints: dead nodes (GC011), variables read with no
//     initializer (GC012), guaranteed queue deadlocks (GC013), queue dtype
//     protocol violations (GC014), stateful ops bound to resources on other
//     tasks (GC016). Post-partition send/recv matching (GC015) runs
//     separately via VerifyPartitions.
//
// Callers: Session::Prepare runs VerifyGraph once per compiled signature
// (strict mode fails compile on ERROR findings, warn mode prints them);
// DistributedSession verifies the client graph at Create and every
// partition set it ships; tools/graphcheck lints serialized GraphDefs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/shape_inference.h"
#include "wire/messages.h"

namespace tfhpc::analysis {

struct AnalysisOptions {
  // Closure roots. When fetches/targets are non-empty, closure-aware lints
  // (deadlock, read-before-initialize) run against the fetch/target closure
  // with `feeds` acting as cut points — exactly the view Session::Run
  // executes. When both are empty the whole graph is analyzed (graphcheck
  // CLI mode), which additionally reports dead nodes (GC011).
  std::vector<std::string> feeds;
  std::vector<std::string> fetches;
  std::vector<std::string> targets;
};

struct GraphAnalysis {
  std::vector<Diagnostic> diagnostics;
  // Inferred output facts per node name (one entry per output slot). Dtypes
  // may be kInvalid and shapes partial; nodes that failed structural checks
  // are absent.
  std::map<std::string, std::vector<InferredTensor>> annotations;

  bool has_errors() const { return HasErrors(diagnostics); }
};

// Runs all three analysis layers. Never fails: every problem is a
// Diagnostic in the result, ERROR findings mark graphs that cannot run.
GraphAnalysis VerifyGraph(const wire::GraphDef& def,
                          const AnalysisOptions& options = {});

// Post-partition checks over the partitioner's output (task address ->
// partition GraphDef): every _Send targets an existing partition holding a
// _Recv with the same rendezvous key, and every _Recv has a matching _Send
// (GC015) — i.e. no cross-task edge was dropped or left dangling.
std::vector<Diagnostic> VerifyPartitions(
    const std::map<std::string, wire::GraphDef>& partitions);

}  // namespace tfhpc::analysis
