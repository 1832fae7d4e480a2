// DistributedSession: the client half of TensorFlow's distributed
// execution. Takes one graph with nodes placed on multiple tasks,
// partitions it (distrib/partition.h), ships each partition to its server
// once, and on every Run drives the involved partitions concurrently —
// cross-task tensors flow through the rendezvous _Send/_Recv pairs the
// partitioner inserted. Feeds and fetches are routed to the owning
// partition automatically.
//
// Compile-once, pruned steps: each (feed names, fetches) signature is
// compiled into a step plan — the fetch closure over the client graph, cut
// at fed nodes, split per partition. A partition's targets are its closure
// nodes plus the _Send nodes whose consumers (on other tasks) are in the
// closure and not fed; the consuming side's own closure pulls in the
// matching _Recv, so send/recv pairs stay matched under pruning. Partitions
// with no closure work are skipped entirely (no RPC). The plan is
// registered with each involved worker once (RegisterStep -> step handle);
// subsequent Runs of the same signature ship only the handle plus feed
// tensors, and the worker executes its cached Executable. Plans and handles
// are invalidated whenever partitions are rebuilt/re-shipped (eviction,
// shrink); a worker that lost its handle (restart, registry eviction)
// answers kNotFound and the client re-registers transparently.
//
// Fault tolerance, two levels:
//
//  * Step-level (PR 1): Run re-attempts a step that failed with a transient
//    fault. Recovery unwinds in-flight _Recvs on every task (AbortStep),
//    returns the rendezvous to a clean state (ResetStep), optionally
//    restores variables from a pre-step snapshot, and re-runs — up to a
//    configurable budget.
//
//  * Job-level (PR 2): when a HealthMonitor's lease protocol declares a
//    worker DEAD — fail-stop crash or a hang caught by the stuck-step
//    watchdog — the session evicts it: fences the address
//    (InProcessRouter::Kill), rebuilds the ClusterSpec (a spare assumes the
//    failed slot, or the cluster shrinks and the dead task's nodes are
//    re-placed on a survivor), re-partitions and diff-ships the graph,
//    restores all tasks from the newest durable checkpoint
//    (io::CheckpointManager), and resumes the step loop. A FaultReport
//    records per-worker attribution (verdict, successor, detection and
//    recovery latency) and the run's MTTR.
#pragma once

#include <memory>
#include <mutex>
#include <set>

#include "distrib/client.h"
#include "distrib/health.h"
#include "distrib/partition.h"
#include "io/checkpoint.h"
#include "optimizer/optimizer.h"

namespace tfhpc::distrib {

// Graph-level options for DistributedSession::Create. They shape the
// optimized client graph once; job-level recovery re-partitions that graph.
struct DistSessionOptions {
  // Run the optimizer pipeline (src/optimizer) over the client graph before
  // partitioning, in whole-graph mode: every terminal and stateful node is
  // a root, so no work is pruned. The rewritten graph is re-verified; a
  // pass bug fails Create with kInternal instead of shipping a miscompiled
  // graph.
  optimizer::OptimizerLevel optimizer_level = optimizer::OptimizerLevel::kOff;
  // Node names clients will later feed or fetch by name. The optimizer
  // never merges or fuses these away (fetching a name CSE removed would
  // otherwise fail with NotFound at Run time).
  std::vector<std::string> preserve_nodes;
};

// Knobs for fault-tolerant Run. The defaults reproduce the historical
// fail-fast behaviour (one attempt, no RPC retries, no checkpointing, no
// liveness-driven eviction).
struct StepRecoveryOptions {
  // Total step attempts (1 = no step-level recovery).
  int max_step_attempts = 1;
  // Retry/deadline policy applied to every RPC the step issues (RunStep,
  // plus the servers' rendezvous sends are governed by ServerDef).
  RetryPolicy rpc_retry = RetryPolicy::NoRetry();
  // Per-attempt step deadline, 0 = none. Each attempt arms a fresh
  // CancellationToken with now + step_timeout_ms; the absolute deadline
  // rides every RPC the attempt issues (workers refuse already-expired
  // steps, bound their rendezvous/queue waits by it and check it at node
  // dispatch), and each RPC's retry budget is clamped to the *remaining*
  // time. Distinct from rpc_retry.deadline_ms, which re-arms per call:
  // this budget travels with the step.
  int64_t step_timeout_ms = 0;
  // When non-empty: before the first attempt all task variables are
  // snapshotted (VarSnapshot per task) into this checkpoint file; before
  // every re-attempt they are restored from it, so a step that half-applied
  // variable updates re-runs from consistent state. Keys are
  // "<task addr>|<var name>" — names may repeat across tasks.
  std::string checkpoint_path;

  // ---- job-level recovery (liveness-driven) --------------------------------
  // Lease verdicts for the watchdog and for eviction decisions. Without a
  // monitor, failed workers are only retried, never evicted.
  HealthMonitor* health = nullptr;
  // Durable checkpoint source/target. Periodic saves feed it; job-level
  // recovery restores all tasks from its newest restorable version.
  io::CheckpointManager* checkpoints = nullptr;
  // Save a checkpoint (async) every N successful steps; 0 disables.
  int checkpoint_every_n_steps = 0;
  // Hot-standby addresses, consumed in order. Each spare must already be a
  // Server registered on the router and provisioned for the job/task slot
  // it may assume (its devices resolve that slot's placements).
  std::vector<std::string> spare_addrs;
  // With no spare left: tombstone the dead slot and re-place its nodes on a
  // surviving task of the same job (shrink). Indices do not shift.
  bool allow_shrink = false;
  // Stuck-step watchdog: when a partition has not finished after this long,
  // consult `health` — a DEAD laggard is fenced (its blocked RPCs abort), a
  // merely-slow ALIVE one is left to finish. 0 disables the watchdog.
  int64_t stuck_step_timeout_ms = 0;
  int64_t watchdog_poll_ms = 10;
  // After a partition fails, how long to wait for the monitor to confirm a
  // DEAD verdict before treating the failure as transient (step retry).
  int64_t dead_verdict_wait_ms = 1000;
};

// One evicted worker: who, why, who took over, how long detection and
// recovery took.
struct WorkerFaultRecord {
  std::string addr;
  std::string verdict;      // "fail-stop" | "hung" | "lease-expired"
  std::string successor;    // spare or adoptive task addr; "" if none
  bool shrunk = false;      // true when the slot was tombstoned, not filled
  int64_t detect_ms = 0;    // step-failure (or step-start) to DEAD verdict
  int64_t recover_ms = 0;   // evict + rebuild + re-ship + restore

  std::string ToString() const;
};

// What happened to one fault-tolerant Run: which partition failed first,
// how much retrying it took, and how the step was (or wasn't) recovered.
struct FaultReport {
  int step_attempts = 0;      // attempts consumed (1 = clean first run)
  int64_t rpc_retries = 0;    // transport-level retries across all attempts
  bool checkpoint_saved = false;
  int variables_restored = 0;  // total vars restored across re-attempts
  bool recovered = false;      // true iff a re-attempt succeeded
  std::string failed_partition;  // task addr of the first failure (if any)
  Status first_error;            // root cause of the first failed attempt
  Status final_status;           // what Run returned

  // Job-level recovery attribution.
  std::vector<WorkerFaultRecord> worker_faults;
  int workers_evicted = 0;
  int64_t checkpoint_restored_version = 0;  // durable version used; 0 = none
  // Mean time to recover across this Run's eviction incidents
  // (detect_ms + recover_ms averaged); 0 when nothing was evicted.
  int64_t mttr_ms = 0;

  std::string ToString() const;
};

class DistributedSession {
 public:
  // Partitions `def` and extends every involved server's graph. The graph
  // nodes must carry device specs resolvable against `cluster` (merged with
  // `default_device`).
  static Result<std::unique_ptr<DistributedSession>> Create(
      InProcessRouter* router, const ClusterSpec& cluster,
      WireProtocol protocol, const wire::GraphDef& def,
      const DeviceName& default_device);

  // As above, plus graph-level options: the optimizer pipeline runs over
  // the client graph before partitioning.
  static Result<std::unique_ptr<DistributedSession>> Create(
      InProcessRouter* router, const ClusterSpec& cluster,
      WireProtocol protocol, const wire::GraphDef& def,
      const DeviceName& default_device, const DistSessionOptions& options);

  // Runs one step across all partitions; returns fetched tensors in order.
  Result<std::vector<Tensor>> Run(const std::map<std::string, Tensor>& feeds,
                                  const std::vector<std::string>& fetches);

  // Fault-tolerant Run: same contract, plus step-level recovery and
  // (when `recovery.health` is set) job-level eviction/restore under
  // `recovery`. If `report` is non-null it is filled in either way.
  Result<std::vector<Tensor>> Run(const std::map<std::string, Tensor>& feeds,
                                  const std::vector<std::string>& fetches,
                                  const StepRecoveryOptions& recovery,
                                  FaultReport* report);

  // Snapshots every task's variables into `manager` now (synchronously).
  // Returns the version written. The step loop's periodic checkpoints use
  // the async path; this is for seeding and tests.
  Result<int64_t> SaveDurableCheckpoint(io::CheckpointManager* manager,
                                        const RetryPolicy& retry);

  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  const ClusterSpec& cluster() const { return cluster_; }
  // Successful fault-tolerant steps completed (drives checkpoint cadence).
  int64_t steps_completed() const { return steps_completed_; }
  // Owning task of a node (tests / diagnostics).
  Result<std::string> TaskOf(const std::string& node_name) const;

  // ---- step-plan cache observability ---------------------------------------
  // Step plans compiled (cache misses); repeat signatures reuse a plan.
  int64_t plans_compiled() const { return plans_compiled_; }
  int64_t plan_cache_hits() const { return plan_cache_hits_; }
  size_t plan_cache_size() const {
    std::lock_guard<std::mutex> lk(step_mu_);
    return step_cache_.size();
  }

 private:
  DistributedSession(InProcessRouter* router, WireProtocol protocol,
                     ClusterSpec cluster, std::unique_ptr<Graph> graph,
                     DeviceName default_device)
      : router_(router),
        protocol_(protocol),
        cluster_(std::move(cluster)),
        graph_(std::move(graph)),
        default_device_(default_device) {}

  struct Partition {
    std::string addr;
    std::vector<std::string> all_nodes;  // every node shipped to this task
  };

  // One compiled (feed names, fetches) signature: the per-partition share
  // of the pruned step, plus the step handles registered with the workers.
  // Only partitions with closure work appear — the rest see no RPC at all.
  struct CompiledStep {
    struct Part {
      std::string addr;
      std::vector<std::string> feed_keys;  // feed keys routed here
      std::vector<std::string> fetches;    // this partition's share
      std::vector<size_t> fetch_positions;  // into the global result
      std::vector<std::string> targets;  // closure nodes + active sends
      uint64_t handle = 0;  // 0 = not registered yet (guarded by handles_mu)
    };
    std::vector<Part> parts;
    std::mutex handles_mu;  // parts run on concurrent threads
  };

  // Returns the cached plan for this signature, compiling on miss: fetch
  // closure over the client graph cut at fed nodes, split per partition
  // with active sends appended (see file comment).
  Result<std::shared_ptr<CompiledStep>> GetOrBuildStepPlan(
      const std::map<std::string, Tensor>& feeds,
      const std::vector<std::string>& fetches);

  // One step attempt across all partitions. On failure, fills
  // *failed_partition with the first failing task's address. When the
  // watchdog is armed (recovery.stuck_step_timeout_ms > 0 with a health
  // monitor), a DEAD laggard is fenced mid-step; *fenced_addr/*detect_ms
  // report it.
  Result<std::vector<Tensor>> RunOnce(
      const std::map<std::string, Tensor>& feeds,
      const std::vector<std::string>& fetches,
      const StepRecoveryOptions& recovery, int64_t* rpc_retries,
      std::string* failed_partition, std::string* fenced_addr,
      int64_t* fence_detect_ms);

  // Unwinds a failed step on every task: AbortStep (wake parked _Recvs),
  // then ResetStep (clean rendezvous). Errors from unreachable tasks are
  // ignored — a partitioned task is reset when it heals or re-fails fast.
  void AbortAndResetAllTasks();

  // Ships `parts` to the cluster: new nodes are ExtendGraph'd (per-address
  // diff against what was already shipped), partitions_/node_task_ are
  // rebuilt. Rejects a rebuild that would need to *modify* an
  // already-shipped node (only possible via shrink re-placement).
  Status ShipPartitions(const PartitionResult& parts,
                        const RetryPolicy& retry);

  // Evicts `dead_addr`: fence, rebuild the ClusterSpec (spare or shrink),
  // re-partition + diff-ship, update the health watch set. Fills
  // *record.successor/shrunk.
  Status EvictAndRebuild(const std::string& dead_addr,
                         const StepRecoveryOptions& recovery,
                         WorkerFaultRecord* record);

  // VarSnapshot every partition into "<addr>|<var>" keys.
  Result<std::map<std::string, Tensor>> SnapshotAllTasks(
      const RetryPolicy& retry, int64_t* rpc_retries);

  // Restores a "<addr>|<var>" snapshot to the (possibly remapped) owning
  // tasks; counts restored variables into `report`.
  void RestoreSnapshotMap(const std::map<std::string, Tensor>& snapshot,
                          const RetryPolicy& retry, FaultReport* report);

  // Applies addr_remap_ transitively (dead -> successor -> ...).
  std::string ResolveAddr(std::string addr) const;

  InProcessRouter* router_;
  WireProtocol protocol_;
  ClusterSpec cluster_;
  // The client graph, after the optimizer; a shrink re-pins the dead
  // task's nodes in place (Graph::SetNodeDevice) and re-partitions it.
  std::unique_ptr<Graph> graph_;
  DeviceName default_device_;
  std::vector<Partition> partitions_;
  std::map<std::string, std::string> node_task_;
  // Producer task -> its _Send nodes (for pruned step targeting).
  std::map<std::string, std::vector<SendDef>> send_defs_;
  // What each server has been sent, by node name — rebuilds ship diffs.
  std::map<std::string, std::map<std::string, wire::NodeDef>> shipped_;
  // Evicted address -> successor address (chains across evictions).
  std::map<std::string, std::string> addr_remap_;
  int64_t steps_completed_ = 0;

  // Signature-keyed cache of compiled step plans. Cleared whenever the
  // partitioning changes (ShipPartitions): node ownership, send sets and
  // worker-side handles are all stale after a rebuild.
  mutable std::mutex step_mu_;
  std::map<std::string, std::shared_ptr<CompiledStep>> step_cache_;
  int64_t plans_compiled_ = 0;
  int64_t plan_cache_hits_ = 0;
};

}  // namespace tfhpc::distrib
