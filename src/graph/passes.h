// Structural graph-optimization passes. TensorFlow applies graph rewrites
// before execution (the paper's §II lists "merging subsequent operations to
// avoid data movement" as a dataflow advantage); tfhpc implements
// common-subexpression elimination here, constant folding in the runtime
// (it needs kernels to evaluate) and dead-node pruning in the optimizer
// pipeline (src/optimizer).
//
// Passes transform GraphDefs so they compose with serialization and can be
// tested in isolation from the runtime.
#pragma once

#include <set>
#include <string>

#include "graph/graph.h"

namespace tfhpc {

// Merges structurally identical stateless nodes: same op, same resolved
// inputs, same attrs, same device. Consumers of a merged node are
// redirected to the surviving copy. Nodes named in `keep` (a run
// signature's feeds/fetches/targets) are never dropped — their identity is
// observable — though duplicates of them still redirect to a surviving copy
// when possible. Placeholders are exempt from merging: two identical
// placeholders are distinct feedable inputs, and collapsing them would
// silently alias feeds. Used by the optimizer pipeline's CSE pass.
Result<wire::GraphDef> CommonSubexpressionElimination(
    const wire::GraphDef& def, const std::set<std::string>& keep);

// Statistics helper used by tests and the session debug log.
struct GraphStats {
  int num_nodes = 0;
  int num_edges = 0;
  int num_stateful = 0;
};
Result<GraphStats> ComputeStats(const wire::GraphDef& def);

}  // namespace tfhpc
