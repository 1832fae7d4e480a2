// Session: the client-facing execution handle (tf.Session). A session binds
// a graph to a device set and a resource manager and runs fetch requests.
//
// Compile-once step execution: Run() keys each request by its RunSignature
// (feed names + fetches + targets) and serves repeat signatures from an LRU
// cache of compiled Executables — the per-step cost of a cached step is a
// flat dataflow loop, with no pruning, placement or kernel lookup. This is
// the only compile cache: a miss prunes, places and instantiates kernels
// afresh. Cached entries are tied to Graph::version(): any graph mutation
// invalidates them and the next Run recompiles. Thread-safe: concurrent Runs share the
// cache under a lock and execute with stack-local state, and concurrent
// misses on one signature share a single compile.
//
// LocalRuntime bundles graph + devices + resources for single-process use —
// the examples and tests build on it; distributed execution wraps sessions
// per task (src/distrib).
#pragma once

#include <atomic>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "core/thread_annotations.h"
#include "graph/ops.h"
#include "graph/passes.h"
#include "optimizer/optimizer.h"
#include "runtime/executor.h"

namespace tfhpc {

// The cache key of one Run request: which tensors go in and what comes out.
// Tensor *values* are irrelevant — two Runs with the same signature execute
// the same pruned, placed, instantiated plan.
struct RunSignature {
  std::vector<std::string> feeds;  // feed keys, sorted
  std::vector<std::string> fetches;
  std::vector<std::string> targets;

  // Canonical string form used as the cache key. Field and element
  // separators are control characters that cannot appear in node names.
  std::string Key() const;
};

// How Session runs GraphCheck (analysis/verifier.h) at compile time.
// Whenever the graph is analysed (graph_check on, or the optimizer on), the
// compile also runs static memory planning (analysis/liveness.h +
// memory_plan.h): tensor live intervals over the compiled closure, a
// deterministic arena plan for statically-shaped tensors, and memory lints
// (GC018 budget breach — rejects in strict mode before any kernel runs;
// GC019 racing variable overwrite). Planned steps allocate one arena block
// per step instead of one pool allocation per planned output. kOff with the
// optimizer off is the pool-only baseline: every output comes from the pool.
enum class GraphCheckMode {
  kOff,     // skip static analysis entirely
  kWarn,    // report findings to stderr, run anyway (default)
  kStrict,  // ERROR findings fail the compile
};

struct SessionOptions {
  GraphCheckMode graph_check = GraphCheckMode::kWarn;
  // Graph optimizer pipeline (src/optimizer) run once per signature-cache
  // miss, before compilation. Off by default: optimization is opt-in per
  // session. The rewritten graph is re-verified with GraphCheck regardless
  // of `graph_check` — a pass producing an invalid graph fails the compile
  // with kInternal rather than executing a miscompiled step.
  optimizer::OptimizerLevel optimizer_level = optimizer::OptimizerLevel::kOff;
  // Default per-step memory budget (bytes) applied to every Run whose
  // RunOptions does not set its own; 0 = unbudgeted. Breaches fail the step
  // with permanent kResourceExhausted (see core/buffer.h).
  int64_t step_memory_limit_bytes = 0;
  // Allocator fault schedule, installed process-wide at session
  // construction when any schedule is enabled (testing/chaos only — the
  // injector is global, like the pool it torments).
  AllocFaultSpec alloc_faults;
};

class Session {
 public:
  // The graph/devices/resources must outlive the session.
  Session(Graph* graph, DeviceMgr* devices, ResourceMgr* resources,
          DeviceName default_device, SessionOptions options = {});

  // Adjusts the GraphCheck policy for subsequent compiles (cached
  // executables are not re-checked).
  void set_graph_check_mode(GraphCheckMode mode) {
    options_.graph_check = mode;
  }

  Result<std::vector<Tensor>> Run(const std::map<std::string, Tensor>& feeds,
                                  const std::vector<std::string>& fetches,
                                  const std::vector<std::string>& targets = {},
                                  const RunOptions& options = {},
                                  RunMetadata* metadata = nullptr);

  // Returns the cached Executable for this signature, compiling (and
  // caching) on miss or when the cached entry predates a graph mutation.
  // Exposed so the distributed worker can pin an Executable to a step
  // handle and skip even the signature lookup on the hot path.
  Result<std::shared_ptr<const Executable>> Prepare(
      const std::vector<std::string>& feed_keys,
      const std::vector<std::string>& fetches,
      const std::vector<std::string>& targets = {});

  // Executes a previously Prepare()d plan. The caller is responsible for
  // staleness: a plan compiled before a graph mutation still runs (its node
  // pointers stay valid — the graph is append-only plus device re-pins) but
  // reflects the old placement/closure; check Executable::stale() first.
  Result<std::vector<Tensor>> RunPrepared(const Executable& executable,
                                          const std::map<std::string, Tensor>& feeds,
                                          const RunOptions& options = {},
                                          RunMetadata* metadata = nullptr);

  // Placement report for one node (tests, debug).
  Result<std::string> DevicePlacement(const std::string& node_name);

  // ---- executable-cache observability ------------------------------------
  // A miss is a compile; a caller that waited on another caller's compile of
  // the same signature counts as a hit.
  int64_t executable_cache_hits() const { return cache_hits_.load(); }
  int64_t executable_cache_misses() const { return cache_misses_.load(); }
  size_t executable_cache_size() const;
  // Max cached signatures; 0 disables caching (every Run recompiles —
  // the uncached baseline the step-overhead ablation measures).
  void set_max_cached_executables(size_t n);
  // Total nodes executed by successful runs through this session (fed nodes
  // excluded). Drives the distributed partial-closure assertions.
  int64_t nodes_executed() const { return nodes_executed_.load(); }

 private:
  using CompileResult = Result<std::shared_ptr<const Executable>>;

  // GraphCheck and the optimizer (optimizer::VerifyAndOptimize), the memory
  // planner and Executor::Compile for one signature.
  CompileResult CompileSignature(const RunSignature& sig);
  // Caches a fresh compile under `key` and returns the entry to use: `exe`,
  // or a concurrently cached plan of a newer graph version.
  std::shared_ptr<const Executable> Insert(
      const std::string& key, std::shared_ptr<const Executable> exe)
      TFHPC_REQUIRES(cache_mu_);

  Graph* graph_;
  Executor executor_;
  SessionOptions options_;

  // Signature-keyed LRU cache of compiled plans. An entry whose
  // graph_version predates Graph::version() is recompiled in place.
  mutable Mutex cache_mu_;
  size_t max_cached_ TFHPC_GUARDED_BY(cache_mu_) = 64;
  // Front = most recently used.
  std::list<std::string> lru_ TFHPC_GUARDED_BY(cache_mu_);
  struct CacheEntry {
    std::shared_ptr<const Executable> executable;
    std::list<std::string>::iterator lru_pos;
  };
  std::map<std::string, CacheEntry> cache_ TFHPC_GUARDED_BY(cache_mu_);
  // Compiles running now, by signature key: concurrent callers of a cold
  // signature wait on the one compile instead of each compiling.
  std::map<std::string, std::shared_future<CompileResult>> in_flight_
      TFHPC_GUARDED_BY(cache_mu_);
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> nodes_executed_{0};
};

// Single-process runtime: one task, one CPU device + `num_gpus` simulated
// GPUs, its own graph and resources.
class LocalRuntime {
 public:
  explicit LocalRuntime(int num_gpus = 1,
                        ComputeModel gpu_model = models::Gk210());

  Graph& graph() { return graph_; }
  Scope root_scope() { return Scope(&graph_); }
  DeviceMgr& devices() { return *devices_; }
  ResourceMgr& resources() { return resources_; }

  // A new session over this runtime's graph and devices.
  std::unique_ptr<Session> NewSession(SessionOptions options = {});

 private:
  Graph graph_;
  std::unique_ptr<DeviceMgr> devices_;
  ResourceMgr resources_;
};

}  // namespace tfhpc
