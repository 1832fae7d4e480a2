// Graph executor with an explicit Compile -> Execute lifecycle.
//
// Compile(graph, feeds, fetches, targets) prunes the graph to the
// fetch/target closure (Graph::ReachableTo, feeds acting as cut points),
// resolves placement for every closure node (explicit pin, merged defaults,
// TF-style soft placement), instantiates kernels, and bakes the result into
// an immutable Executable: flat vector-indexed topology, initial
// ready-counts and fanout tables. Execute(executable, feed_tensors) is then
// a tight dataflow loop over those tables — no per-step map lookups or
// graph walks. Session caches Executables per run signature, so each
// signature compiles once; the executor itself caches nothing.
//
// Execution is dataflow-style: an op becomes ready when all its data and
// control inputs have completed, and every ready op runs concurrently on the
// thread pool, whatever its device (kernels are stateless and the memory
// plan is sound under any interleaving); blocking queue ops get dedicated
// threads so they cannot starve compute. A step of one non-blocking node
// runs it on the calling thread. The DES (src/sim) keeps its own
// single-stream device model for the figures' timings.
//
// An Executable is valid only for the Graph::version() it was compiled
// against — any graph mutation invalidates it (callers check stale()).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/memory_plan.h"
#include "core/status.h"
#include "graph/graph.h"
#include "kernels/kernel.h"
#include "runtime/cancellation.h"
#include "runtime/debug.h"
#include "runtime/device.h"
#include "runtime/resource_mgr.h"

namespace tfhpc {

struct RunOptions {
  // Collect per-node execution records into RunMetadata.
  bool trace = false;
  // tfdbg-lite: also summarize every node output (implies trace).
  bool debug = false;
  // Per-step deadline in ms (0 = none). Execute stops dispatching new nodes
  // and fails blocking waits with kDeadlineExceeded once it passes.
  int64_t timeout_ms = 0;
  // Optional caller-owned cancellation token shared with this step. When
  // both a token and timeout_ms are given, the effective deadline is the
  // earlier of the two (the token is tightened in place).
  CancellationToken* cancellation = nullptr;
  // Per-step memory budget in bytes (0 = unbudgeted). Execute arms a
  // MemoryLimiter charged by every output allocation of this step; a breach
  // fails the offending node with *permanent* kResourceExhausted and the
  // step unwinds. Buffers fetched out of the step keep their reservation
  // until destroyed (the limiter is shared, so this is safe).
  int64_t step_memory_limit_bytes = 0;
};

// One executed node, for the Timeline (Fig. 3) and the DES replay.
struct NodeExecRecord {
  std::string name;
  std::string op;
  std::string device;        // full device name
  double start_us = 0;       // wall-clock, relative to step start
  double end_us = 0;
  CostEstimate cost;         // nominal work (OpKernel::Cost)
  std::vector<std::string> input_names;
  // Filled when RunOptions::debug: one summary per output slot.
  std::vector<TensorDebugSummary> output_summaries;
};

struct RunMetadata {
  std::vector<NodeExecRecord> nodes;
  // High-water mark of the step's MemoryLimiter (nominal bytes); 0 when the
  // step ran unbudgeted. For graphs without dynamic tensors this is always
  // <= the compile-time Executable::static_peak_bytes() bound.
  int64_t step_peak_bytes = 0;
};

// Renders the tfdbg-style watch list ("node (op) @device: summary").
std::string FormatDebugReport(const RunMetadata& metadata);

// An immutable compiled step: the pruned closure in topological order with
// placement, kernels, dependency counts and fanout baked into flat vectors.
// Compiled once by Executor::Compile, executed many times by
// Executor::Execute; shareable across threads (Execute keeps all mutable
// step state on its own stack).
class Executable {
 public:
  // Graph version this plan was compiled against.
  int64_t graph_version() const { return graph_version_; }
  // True once the graph has mutated past the compiled version.
  bool stale(const Graph& graph) const {
    return graph.version() != graph_version_;
  }
  // Closure nodes that are scheduled (excludes fed nodes, which complete
  // immediately from their feed tensor).
  int num_scheduled_nodes() const { return num_scheduled_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<std::string>& fetches() const { return fetch_keys_; }

  // Static memory plan facts (analysis/memory_plan.h), baked at compile
  // time when Session::Prepare computed a plan. arena_bytes() is the single
  // per-step block Execute allocates and carves with views; 0 = no plan (or
  // nothing plannable) and every output goes through the pool.
  int64_t arena_bytes() const { return arena_bytes_; }
  // Compile-time upper bound on the step's limiter-charged footprint, sound
  // under any concurrent interleaving; 0 when no plan was attached. Serving
  // admission charges this against its byte budget.
  int64_t static_peak_bytes() const { return static_peak_bytes_; }
  // Scheduled nodes whose output is served from the arena.
  int num_planned_nodes() const { return num_planned_; }

 private:
  friend class Executor;

  struct CompiledNode {
    const Node* node = nullptr;  // stable: Graph stores nodes behind unique_ptr
    Device* device = nullptr;    // null for fed nodes (never executed)
    std::unique_ptr<OpKernel> kernel;  // null for fed nodes
    // (producer index into nodes_, producer output slot) per data input, in
    // input order.
    std::vector<std::pair<int, int>> data_inputs;
    // Indexes into nodes_ whose pending count drops when this completes.
    std::vector<int> consumers;
    int initial_pending = 0;  // in-edges from non-fed producers
    int num_outputs = 0;      // output slots to allocate (>= 1)
    bool fed = false;
    bool blocking = false;    // queue ops: dedicated thread, not the pool
    // Producer names in input order, baked at compile time so trace mode
    // never touches the Graph during Execute (concurrent steps may race
    // with graph mutation otherwise).
    std::vector<std::string> input_names;
    // Arena placement for this node's sole output (the planner only covers
    // single-output nodes); empty when the kernel allocates its output from
    // the pool.
    std::optional<analysis::PlannedTensor> planned;
  };
  struct FeedBinding {
    std::string key;  // "name" or "name:slot" as the caller feeds it
    int node_index = 0;
    int slot = 0;
  };
  struct FetchBinding {
    std::string key;
    int node_index = 0;
    int slot = 0;
  };

  std::vector<CompiledNode> nodes_;  // topological order
  // Per (node, output slot): number of step-local references — consumer data
  // inputs plus fetch bindings. Execute counts these down and *moves* the
  // tensor to its final consumer, so a pooled buffer returns to the pool at
  // its last read instead of at step end.
  std::vector<std::vector<int>> output_uses_;
  std::vector<int> initial_ready_;   // indexes with pending == 0, not fed
  std::vector<FeedBinding> feed_bindings_;
  std::vector<FetchBinding> fetch_bindings_;
  std::vector<std::string> fetch_keys_;
  int64_t graph_version_ = 0;
  int num_scheduled_ = 0;
  int64_t arena_bytes_ = 0;
  int64_t static_peak_bytes_ = 0;
  int num_planned_ = 0;
  // Device whose allocator the arena block is attributed to (the first
  // planned node's device); null when no plan is attached.
  Device* arena_device_ = nullptr;
  // The graph the plan was compiled against. Its Node pointers must outlive
  // the plan, so the plan co-owns it: an optimizer rewrite lives exactly as
  // long as its plans; the session graph is held without ownership (its
  // owner outlives the session).
  std::shared_ptr<const Graph> graph_;
};

class Executor {
 public:
  // `default_device` supplies job/task (and optionally type) for nodes with
  // partial or empty device specs.
  Executor(DeviceMgr* devices, ResourceMgr* resources,
           DeviceName default_device);

  // Compiles one run signature over `graph` into an Executable. `graph` is
  // the session graph or an optimizer rewrite of it; the Executable
  // co-owns it and is stamped with `graph_version`, the session graph's
  // version when the signature was compiled, so stale() works for both.
  // `feed_keys` are the names ("node" or "node:slot") that Execute will
  // supply tensors for — values are not needed to compile. The signature
  // must fetch or target at least one node. `memory_plan` (optional) is the
  // static memory plan computed over the same signature: planned
  // single-output nodes are bound to arena placements and the plan's
  // arena/peak byte facts are baked into the Executable. Every other output
  // comes from the pool, allocated by its kernel.
  Result<std::shared_ptr<const Executable>> Compile(
      std::shared_ptr<const Graph> graph, int64_t graph_version,
      const std::vector<std::string>& feed_keys,
      const std::vector<std::string>& fetches,
      const std::vector<std::string>& targets,
      const analysis::MemoryPlan* memory_plan);

  // Runs a compiled step. `feeds` must supply every feed key the executable
  // was compiled with; extra keys that were also in the compiled signature
  // but pruned from the closure are ignored. Returns fetched tensors in
  // compile order.
  Result<std::vector<Tensor>> Execute(const Executable& executable,
                                      const std::map<std::string, Tensor>& feeds,
                                      const RunOptions& options = {},
                                      RunMetadata* metadata = nullptr);

  // Resolved placement for one node (exposed for tests and the Session's
  // device report). Applies soft placement.
  Result<Device*> PlaceNode(const Node& node);

 private:
  DeviceMgr* devices_;
  ResourceMgr* resources_;
  DeviceName default_device_;
};

}  // namespace tfhpc
