#include "distrib/partition.h"

#include <set>

#include "wire/messages.h"

namespace tfhpc::distrib {
namespace {

// Builders accumulate NodeDefs per task; nodes keep their original names so
// feeds/fetches stay valid.
struct PartitionBuilder {
  std::vector<wire::NodeDef> nodes;
  std::set<std::string> names;
};

std::string EdgeKey(const std::string& producer, int slot,
                    const std::string& consumer_task) {
  return "edge/" + producer + ":" + std::to_string(slot) + "->" +
         consumer_task;
}

std::string RecvName(const std::string& producer, int slot) {
  return "_recv/" + producer + "_" + std::to_string(slot);
}

// Node names must not contain ':' (it would parse as an output slot), so
// task addresses embedded in generated names are sanitized.
std::string SanitizeForName(std::string s) {
  for (char& c : s) {
    if (c == ':') c = '_';
  }
  return s;
}

}  // namespace

Result<PartitionResult> PartitionGraph(const Graph& graph,
                                       const ClusterSpec& cluster,
                                       const DeviceName& default_device) {
  if (default_device.job.empty() || default_device.task < 0) {
    return InvalidArgument("partitioning needs a default job/task");
  }

  // Resolve every node's owning task address.
  std::map<int, std::string> task_of;  // node id -> addr
  PartitionResult result;
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node* n = graph.node(id);
    TFHPC_ASSIGN_OR_RETURN(DeviceName requested,
                           DeviceName::Parse(n->requested_device()));
    const DeviceName resolved = requested.MergedWith(default_device);
    TFHPC_ASSIGN_OR_RETURN(std::string addr,
                           cluster.TaskAddress(resolved.job, resolved.task));
    task_of[id] = addr;
    result.node_task[n->name()] = addr;
  }

  std::map<std::string, PartitionBuilder> builders;
  // (producer id, slot, dst task) -> recv node name, deduplicating sends.
  std::map<std::tuple<int, int, std::string>, std::string> edge_recv;
  // Same key -> (producer task, index into result.sends[task]) so every
  // consumer of a deduplicated send is recorded in its SendDef.
  std::map<std::tuple<int, int, std::string>, std::pair<std::string, size_t>>
      edge_send;

  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node* n = graph.node(id);
    const std::string& my_task = task_of[id];
    PartitionBuilder& mine = builders[my_task];

    wire::NodeDef def = n->def();
    // Rewire inputs whose producers live on other tasks.
    for (size_t i = 0; i < def.inputs.size(); ++i) {
      const InEdge& e = n->in_edges()[i];
      const std::string& src_task = task_of[e.node_id];
      if (src_task == my_task) continue;

      const Node* producer = graph.node(e.node_id);
      const int slot = e.control ? -1 : e.output_index;
      const auto key_tuple = std::make_tuple(e.node_id, slot, my_task);
      auto it = edge_recv.find(key_tuple);
      if (it == edge_recv.end()) {
        const std::string key = EdgeKey(producer->name(), slot, my_task);
        const std::string recv_name = RecvName(producer->name(), slot);
        std::string send_name;

        // Producer side: a _Send in the source partition.
        PartitionBuilder& theirs = builders[src_task];
        if (e.control) {
          // Control edge: ship a zero-scalar token gated on the producer.
          wire::NodeDef token;
          token.name = "_token/" + producer->name() + "/" + recv_name;
          token.op = "Const";
          token.device = producer->def().device;
          token.attrs["value"] = wire::AttrValue::Str(
              wire::SerializeTensor(Tensor::Scalar<int64_t>(0)));
          token.attrs["dtype"] = wire::AttrValue::Type(DType::kI64);
          token.inputs = {"^" + producer->name()};
          wire::NodeDef send;
          send.name = "_send/" + producer->name() + "/ctrl/" + SanitizeForName(my_task);
          send_name = send.name;
          send.op = "_Send";
          send.device = producer->def().device;
          send.inputs = {token.name};
          send.attrs["key"] = wire::AttrValue::Str(key);
          send.attrs["target"] = wire::AttrValue::Str(my_task);
          theirs.nodes.push_back(std::move(token));
          theirs.nodes.push_back(std::move(send));
        } else {
          wire::NodeDef send;
          send.name = "_send/" + producer->name() + "_" +
                      std::to_string(slot) + "/" + SanitizeForName(my_task);
          send_name = send.name;
          send.op = "_Send";
          send.device = producer->def().device;
          send.inputs = {slot == 0 ? producer->name()
                                   : producer->name() + ":" +
                                         std::to_string(slot)};
          send.attrs["key"] = wire::AttrValue::Str(key);
          send.attrs["target"] = wire::AttrValue::Str(my_task);
          theirs.nodes.push_back(std::move(send));
        }

        // Consumer side: a _Recv in this partition.
        wire::NodeDef recv;
        recv.name = recv_name;
        recv.op = "_Recv";
        recv.device = def.device;
        recv.attrs["key"] = wire::AttrValue::Str(key);
        mine.nodes.push_back(std::move(recv));
        it = edge_recv.emplace(key_tuple, recv_name).first;

        auto& sends = result.sends[src_task];
        sends.push_back(SendDef{send_name, producer->name(), e.control,
                                {n->name()}});
        edge_send.emplace(key_tuple,
                          std::make_pair(src_task, sends.size() - 1));
      } else {
        const auto& [send_task, idx] = edge_send.at(key_tuple);
        result.sends[send_task][idx].consumers.push_back(n->name());
      }
      def.inputs[i] = e.control ? "^" + it->second : it->second;
    }
    mine.nodes.push_back(std::move(def));
  }

  // Order each partition topologically: recvs/tokens/sends were appended in
  // producer-before-consumer order EXCEPT sends appended to a partition
  // after later nodes were added. Rebuild order by (a) stable-partitioning:
  // Graph::FromGraphDef validates inputs-first, so sort by dependency with
  // a simple fixpoint insertion.
  for (auto& [addr, builder] : builders) {
    std::vector<wire::NodeDef> ordered;
    std::set<std::string> placed;
    std::vector<wire::NodeDef> pending = std::move(builder.nodes);
    while (!pending.empty()) {
      const size_t before = pending.size();
      std::vector<wire::NodeDef> still;
      for (auto& nd : pending) {
        bool ready = true;
        for (const std::string& input : nd.inputs) {
          if (!placed.count(ParseTensorRef(input).name)) {
            ready = false;
            break;
          }
        }
        if (ready) {
          placed.insert(nd.name);
          ordered.push_back(std::move(nd));
        } else {
          still.push_back(std::move(nd));
        }
      }
      if (still.size() == before) {
        return Internal("partition for " + addr +
                        " has a dependency cycle after send/recv insertion");
      }
      pending = std::move(still);
    }
    wire::GraphDef part;
    part.nodes = std::move(ordered);
    result.partitions.emplace(addr, std::move(part));
  }
  return result;
}

}  // namespace tfhpc::distrib
