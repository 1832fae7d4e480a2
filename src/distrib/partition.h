// Graph partitioning: split one graph whose nodes are placed on different
// tasks ("/job:worker/task:1/gpu:0") into per-task subgraphs, inserting
// matched _Send/_Recv pairs at every cross-task edge — exactly what
// TensorFlow's distributed runtime does before execution. There is one pair
// per (producer, slot, destination task), however many consumers share it,
// and each pair crosses the wire on its own. Data edges become tensor
// sends; control edges become token sends (a zero scalar gated on the
// producer).
#pragma once

#include <map>
#include <vector>

#include "core/device_name.h"
#include "distrib/cluster_spec.h"
#include "graph/graph.h"

namespace tfhpc::distrib {

// One _Send the partitioner inserted: which producer it ships and which
// original nodes (on the other side of the cut) consume it. The client's
// step pruner targets a send iff at least one consumer is in the fetch
// closure and not fed — the consuming partition's own closure then pulls in
// the matching _Recv, keeping the pair matched under pruning.
struct SendDef {
  std::string name;      // the _Send node's name (producer partition)
  std::string producer;  // original producer node name
  bool control = false;  // control-edge token send vs data send
  std::vector<std::string> consumers;  // original consumer node names
};

struct PartitionResult {
  // Task address -> that task's subgraph.
  std::map<std::string, wire::GraphDef> partitions;
  // Node name -> owning task address (for routing feeds/fetches).
  std::map<std::string, std::string> node_task;
  // Producer task address -> the _Send nodes in its partition.
  std::map<std::string, std::vector<SendDef>> sends;
};

// Splits `graph`. Every node's device spec is merged with `default_device`
// (which must carry a job and task) and the resulting job/task must exist
// in `cluster`. Rendezvous keys are derived from edge names, so repeated
// partitioning of the same graph is deterministic.
Result<PartitionResult> PartitionGraph(const Graph& graph,
                                       const ClusterSpec& cluster,
                                       const DeviceName& default_device);

}  // namespace tfhpc::distrib
