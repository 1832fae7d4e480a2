#include "distrib/dist_session.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "analysis/verifier.h"

namespace tfhpc::distrib {
namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Marker appended to an evicted task's address when the cluster shrinks:
// the slot stays (indices must not shift) but no server answers there.
constexpr const char* kTombstoneSuffix = "#dead";

bool IsTombstone(const std::string& addr) {
  const std::string suffix = kTombstoneSuffix;
  return addr.size() > suffix.size() &&
         addr.compare(addr.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string WorkerFaultRecord::ToString() const {
  std::string out = "WorkerFault{" + addr + " " + verdict;
  if (!successor.empty()) {
    out += shrunk ? ", shrunk_onto=" : ", replaced_by=";
    out += successor;
  }
  out += ", detect_ms=" + std::to_string(detect_ms) +
         ", recover_ms=" + std::to_string(recover_ms) + "}";
  return out;
}

std::string FaultReport::ToString() const {
  std::string out = "FaultReport{attempts=" + std::to_string(step_attempts) +
                    ", rpc_retries=" + std::to_string(rpc_retries);
  if (!failed_partition.empty()) out += ", failed=" + failed_partition;
  if (!first_error.ok()) out += ", first_error=" + first_error.ToString();
  if (checkpoint_saved) out += ", checkpoint_saved";
  if (variables_restored > 0) {
    out += ", vars_restored=" + std::to_string(variables_restored);
  }
  if (workers_evicted > 0) {
    out += ", evicted=" + std::to_string(workers_evicted);
    for (const auto& f : worker_faults) out += ", " + f.ToString();
    out += ", mttr_ms=" + std::to_string(mttr_ms);
  }
  if (checkpoint_restored_version > 0) {
    out += ", restored_version=" + std::to_string(checkpoint_restored_version);
  }
  out += recovered ? ", recovered" : ", not_recovered";
  out += ", final=" + final_status.ToString() + "}";
  return out;
}

Result<std::unique_ptr<DistributedSession>> DistributedSession::Create(
    InProcessRouter* router, const ClusterSpec& cluster, WireProtocol protocol,
    const wire::GraphDef& def, const DeviceName& default_device) {
  return Create(router, cluster, protocol, def, default_device,
                DistSessionOptions{});
}

Result<std::unique_ptr<DistributedSession>> DistributedSession::Create(
    InProcessRouter* router, const ClusterSpec& cluster, WireProtocol protocol,
    const wire::GraphDef& def, const DeviceName& default_device,
    const DistSessionOptions& options) {
  // GraphCheck over the whole client graph before any partitioning work (a
  // graph that cannot run on one task cannot run split across many), then
  // the optimizer pipeline in whole-graph mode: no run signature exists
  // yet, so every terminal and stateful node is a root.
  optimizer::PipelineOptions popts;
  popts.level = options.optimizer_level;
  popts.preserve = options.preserve_nodes;
  TFHPC_ASSIGN_OR_RETURN(
      optimizer::CheckedGraph checked,
      optimizer::VerifyAndOptimize(def, analysis::AnalysisOptions{}, popts));
  if (analysis::HasErrors(checked.findings)) {
    return InvalidArgument("graphcheck rejected the client graph:\n" +
                           analysis::FormatErrors(checked.findings));
  }
  TFHPC_ASSIGN_OR_RETURN(
      std::unique_ptr<Graph> graph,
      Graph::FromGraphDef(checked.rewrite ? *checked.rewrite : def));
  TFHPC_ASSIGN_OR_RETURN(PartitionResult parts,
                         PartitionGraph(*graph, cluster, default_device));

  std::unique_ptr<DistributedSession> session(new DistributedSession(
      router, protocol, cluster, std::move(graph), default_device));
  TFHPC_RETURN_IF_ERROR(
      session->ShipPartitions(parts, RetryPolicy::NoRetry()));
  return session;
}

Status DistributedSession::ShipPartitions(const PartitionResult& parts,
                                          const RetryPolicy& retry) {
  // Post-partition GraphCheck: every cross-task _Send must pair with a
  // _Recv in its target partition and vice versa (GC015). Covers both the
  // initial Create and every eviction/shrink rebuild, before any server
  // graph is extended.
  {
    const std::vector<analysis::Diagnostic> diags =
        analysis::VerifyPartitions(parts.partitions);
    if (analysis::HasErrors(diags)) {
      return FailedPrecondition("graphcheck rejected the partition plan:\n" +
                                analysis::FormatDiagnostics(diags));
    }
  }

  // Pass 1 (no side effects): per address, split each partition into nodes
  // the server already holds and nodes it still needs. A rebuild that would
  // have to *change* a node already extended into a server graph is
  // unshippable — graphs are append-only — so reject it up front. This is
  // what makes shrink re-placement safe: an adoptive task whose existing
  // nodes would be rewired (e.g. it consumed the dead task's outputs via a
  // _Recv that re-placement turns into a direct edge) produces a clear
  // error instead of silently diverging from the shipped graph.
  std::map<std::string, wire::GraphDef> deltas;
  for (const auto& [addr, part_def] : parts.partitions) {
    const auto shipped = shipped_.find(addr);
    wire::GraphDef delta;
    for (const auto& nd : part_def.nodes) {
      if (shipped != shipped_.end()) {
        auto prev = shipped->second.find(nd.name);
        if (prev != shipped->second.end()) {
          if (!(prev->second == nd)) {
            return FailedPrecondition(
                "rebuild would modify already-shipped node '" + nd.name +
                "' on " + addr +
                " (re-placement rewired one of its edges); this shrink "
                "target cannot adopt the evicted task's nodes");
          }
          continue;  // already on the server, unchanged
        }
      }
      delta.nodes.push_back(nd);
    }
    if (!delta.nodes.empty()) deltas.emplace(addr, std::move(delta));
  }

  // Pass 2: ship the per-address deltas and commit the bookkeeping.
  for (auto& [addr, delta] : deltas) {
    RemoteTask task(router_, addr, protocol_, retry);
    TFHPC_RETURN_IF_ERROR(task.ExtendGraph(delta));
    auto& have = shipped_[addr];
    for (auto& nd : delta.nodes) have.emplace(nd.name, nd);
  }

  partitions_.clear();
  for (const auto& [addr, part_def] : parts.partitions) {
    Partition p;
    p.addr = addr;
    for (const auto& nd : part_def.nodes) p.all_nodes.push_back(nd.name);
    partitions_.push_back(std::move(p));
  }
  node_task_ = parts.node_task;
  send_defs_ = parts.sends;

  // Any rebuild invalidates compiled step plans: node ownership and send
  // sets may have changed, and worker-side step handles don't survive a
  // replacement server. The next Run recompiles and re-registers.
  {
    std::lock_guard<std::mutex> lk(step_mu_);
    step_cache_.clear();
  }
  return Status::OK();
}

Result<std::shared_ptr<DistributedSession::CompiledStep>>
DistributedSession::GetOrBuildStepPlan(
    const std::map<std::string, Tensor>& feeds,
    const std::vector<std::string>& fetches) {
  // Cache key: feed *names* + fetches (tensor values are irrelevant to the
  // plan). std::map iteration delivers the feed keys pre-sorted.
  RunSignature sig;
  for (const auto& [key, tensor] : feeds) sig.feeds.push_back(key);
  sig.fetches = fetches;
  const std::string key = sig.Key();

  {
    std::lock_guard<std::mutex> lk(step_mu_);
    auto it = step_cache_.find(key);
    if (it != step_cache_.end()) {
      ++plan_cache_hits_;
      return it->second;
    }
  }

  // Fed nodes cut the closure: anything only needed to produce a fed value
  // is not executed anywhere in the cluster.
  std::set<std::string> fed;
  for (const auto& [feed_key, tensor] : feeds) {
    std::string name = ParseTensorRef(feed_key).name;
    if (!node_task_.count(name)) {
      return NotFound("feed of unknown node " + feed_key);
    }
    fed.insert(std::move(name));
  }

  // Fetch closure over the *client* graph (original nodes only — sends and
  // recvs are a per-partition artifact handled below).
  TFHPC_ASSIGN_OR_RETURN(const std::vector<int> closure_ids,
                         graph_->ReachableTo(fetches, fed));
  std::set<std::string> closure;
  for (int id : closure_ids) closure.insert(graph_->node(id)->name());

  // Split the closure per partition. Targets are the partition's unfed
  // closure nodes plus its active sends: a send runs iff some consumer
  // across the cut is in the closure and not fed — the consumer's own
  // (server-side) closure then includes the matching _Recv, so every recv
  // that waits has a sender and every send has a waiting recv.
  auto plan = std::make_shared<CompiledStep>();
  std::map<std::string, size_t> part_index;  // addr -> index into parts
  auto part_for = [&](const std::string& addr) -> CompiledStep::Part& {
    auto it = part_index.find(addr);
    if (it == part_index.end()) {
      it = part_index.emplace(addr, plan->parts.size()).first;
      plan->parts.push_back(CompiledStep::Part{});
      plan->parts.back().addr = addr;
    }
    return plan->parts[it->second];
  };

  for (const std::string& name : closure) {
    if (fed.count(name)) continue;
    part_for(node_task_.at(name)).targets.push_back(name);
  }
  for (const auto& [addr, sends] : send_defs_) {
    for (const SendDef& send : sends) {
      for (const std::string& consumer : send.consumers) {
        if (closure.count(consumer) && !fed.count(consumer)) {
          part_for(addr).targets.push_back(send.name);
          break;
        }
      }
    }
  }
  for (size_t i = 0; i < fetches.size(); ++i) {
    CompiledStep::Part& part =
        part_for(node_task_.at(ParseTensorRef(fetches[i]).name));
    part.fetches.push_back(fetches[i]);
    part.fetch_positions.push_back(i);
  }
  // Feeds go to the owning partition — but only if that partition has work
  // (a feed nobody in the closure consumes is simply dropped).
  for (const auto& [feed_key, tensor] : feeds) {
    const std::string& addr = node_task_.at(ParseTensorRef(feed_key).name);
    auto it = part_index.find(addr);
    if (it == part_index.end()) continue;
    plan->parts[it->second].feed_keys.push_back(feed_key);
  }

  std::lock_guard<std::mutex> lk(step_mu_);
  auto [it, inserted] = step_cache_.emplace(key, plan);
  if (!inserted) return it->second;  // concurrent compile won the race
  ++plans_compiled_;
  return plan;
}

Result<std::string> DistributedSession::TaskOf(
    const std::string& node_name) const {
  auto it = node_task_.find(node_name);
  if (it == node_task_.end()) return NotFound("unknown node " + node_name);
  return it->second;
}

std::string DistributedSession::ResolveAddr(std::string addr) const {
  // Chains: w0 died onto spare1, spare1 died onto spare2, ...
  for (size_t hops = 0; hops <= addr_remap_.size(); ++hops) {
    auto it = addr_remap_.find(addr);
    if (it == addr_remap_.end()) return addr;
    addr = it->second;
  }
  return addr;
}

Result<std::vector<Tensor>> DistributedSession::Run(
    const std::map<std::string, Tensor>& feeds,
    const std::vector<std::string>& fetches) {
  return Run(feeds, fetches, StepRecoveryOptions{}, nullptr);
}

Result<std::vector<Tensor>> DistributedSession::RunOnce(
    const std::map<std::string, Tensor>& feeds,
    const std::vector<std::string>& fetches,
    const StepRecoveryOptions& recovery, int64_t* rpc_retries,
    std::string* failed_partition, std::string* fenced_addr,
    int64_t* fence_detect_ms) {
  // The compiled plan for this signature: per-partition fetch/target/feed
  // routing with the closure already pruned. Cached — repeat signatures
  // skip straight to execution.
  TFHPC_ASSIGN_OR_RETURN(std::shared_ptr<CompiledStep> plan,
                         GetOrBuildStepPlan(feeds, fetches));

  // Per-attempt step token: one deadline/cancellation scope covering every
  // RPC this attempt issues. With step_timeout_ms set, the absolute
  // deadline is stamped on each envelope (workers refuse expired steps and
  // bound their blocking waits by it) and each RPC's retry budget is
  // clamped to the remaining time. Either way the token lets a peer
  // failure cancel the surviving partitions' not-yet-issued RPCs
  // client-side, on top of the server-side AbortStep below.
  std::shared_ptr<CancellationToken> step_token =
      recovery.step_timeout_ms > 0
          ? CancellationToken::WithTimeout(recovery.step_timeout_ms)
          : std::make_shared<CancellationToken>();

  // Distribute this Run's feed tensors along the plan's routing.
  std::vector<std::map<std::string, Tensor>> part_feeds(plan->parts.size());
  for (size_t pi = 0; pi < plan->parts.size(); ++pi) {
    for (const std::string& feed_key : plan->parts[pi].feed_keys) {
      part_feeds[pi].emplace(feed_key, feeds.at(feed_key));
    }
  }

  // Runs one partition's share through its registered step handle, lazily
  // registering on first use and re-registering once on kNotFound (the
  // worker restarted or evicted the handle).
  auto run_part = [&](size_t pi,
                      RemoteTask& task) -> Result<std::vector<Tensor>> {
    CompiledStep::Part& part = plan->parts[pi];
    uint64_t handle = 0;
    {
      std::lock_guard<std::mutex> lk(plan->handles_mu);
      handle = part.handle;
    }
    if (handle == 0) {
      TFHPC_ASSIGN_OR_RETURN(
          handle, task.RegisterStep(part.feed_keys, part.fetches,
                                    part.targets, step_token.get()));
      std::lock_guard<std::mutex> lk(plan->handles_mu);
      part.handle = handle;
    }
    auto r = task.RunRegisteredStep(handle, part_feeds[pi],
                                    /*simulate=*/false, step_token.get());
    if (!r.ok() && r.status().code() == Code::kNotFound) {
      TFHPC_ASSIGN_OR_RETURN(
          handle, task.RegisterStep(part.feed_keys, part.fetches,
                                    part.targets, step_token.get()));
      {
        std::lock_guard<std::mutex> lk(plan->handles_mu);
        part.handle = handle;
      }
      r = task.RunRegisteredStep(handle, part_feeds[pi],
                                 /*simulate=*/false, step_token.get());
    }
    return r;
  };

  // Drive the involved partitions concurrently: cross-task edges rendezvous
  // inside the servers, so partitions must run simultaneously. If any
  // partition fails, the others may be parked in _Recv waiting for tensors
  // that will never be sent — the first error triggers step cancellation
  // (AbortStep) on every peer so the whole Run unwinds instead of hanging.
  const size_t num_parts = plan->parts.size();
  std::vector<Tensor> results(fetches.size());
  std::vector<Status> status(num_parts);
  std::vector<char> part_done(num_parts, 0);
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  bool failed = false;

  std::vector<std::thread> threads;
  for (size_t pi = 0; pi < num_parts; ++pi) {
    threads.emplace_back([&, pi] {
      CompiledStep::Part& part = plan->parts[pi];
      RemoteTask task(router_, part.addr, protocol_, recovery.rpc_retry);
      Status st;
      auto r = run_part(pi, task);
      if (!r.ok()) {
        st = r.status();
      } else if (r->size() != part.fetches.size()) {
        st = Internal("partition returned wrong fetch count");
      } else {
        for (size_t f = 0; f < part.fetch_positions.size(); ++f) {
          results[part.fetch_positions[f]] = std::move((*r)[f]);
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      if (rpc_retries != nullptr) *rpc_retries += task.retries();
      status[pi] = std::move(st);
      part_done[pi] = 1;
      ++done;
      if (!status[pi].ok()) failed = true;
      cv.notify_all();
    });
  }

  {
    std::unique_lock<std::mutex> lk(mu);
    const auto all_done = [&] { return done == num_parts || failed; };
    const bool watchdog_armed =
        recovery.stuck_step_timeout_ms > 0 && recovery.health != nullptr;
    if (!watchdog_armed) {
      cv.wait(lk, all_done);
    } else {
      // Stuck-step watchdog: a partition past the step timeout is either
      // hung or merely slow. The lease verdict distinguishes them — a DEAD
      // laggard is fenced (Kill aborts its in-flight RPCs, including calls
      // parked inside a Hang), an ALIVE one is left to finish. Verdicts
      // come from the HealthMonitor, never from this thread blocking.
      const int64_t started_ms = SteadyNowMs();
      std::set<std::string> fenced;
      while (!all_done()) {
        cv.wait_for(lk,
                    std::chrono::milliseconds(
                        std::max<int64_t>(1, recovery.watchdog_poll_ms)),
                    all_done);
        if (all_done()) break;
        const int64_t elapsed = SteadyNowMs() - started_ms;
        if (elapsed < recovery.stuck_step_timeout_ms) continue;
        for (size_t pi = 0; pi < num_parts; ++pi) {
          if (part_done[pi]) continue;
          const std::string addr = plan->parts[pi].addr;
          if (fenced.count(addr)) continue;
          if (recovery.health->health(addr) != TaskHealth::kDead) continue;
          fenced.insert(addr);
          lk.unlock();
          router_->Kill(addr);  // fence: releases the stuck RunStep
          lk.lock();
          if (fenced_addr != nullptr && fenced_addr->empty()) {
            *fenced_addr = addr;
            if (fence_detect_ms != nullptr) *fence_detect_ms = elapsed;
          }
        }
      }
    }
    if (failed && done < num_parts) {
      // Cancel stragglers; their RunSteps fail with Cancelled and unwind.
      // Two prongs: the client-side token stops any RPC a straggler thread
      // has not issued yet (and halts its retry loop at the next attempt),
      // while AbortStep unwinds work already executing on the servers —
      // _Recv waiters, queue waits and dispatch all fail with Cancelled.
      // Control RPCs go without retry: a dead task's abort must not burn
      // another deadline, and a live task aborts on the first try. Every
      // task is aborted, not just the involved parts — a peer's rendezvous
      // may hold tensors from a half-delivered send.
      step_token->Cancel(Cancelled("peer partition failed; step cancelled"));
      for (const Partition& part : partitions_) {
        RemoteTask(router_, part.addr, protocol_).AbortStep("peer failed");
      }
      cv.wait(lk, [&] { return done == num_parts; });
    }
  }
  for (auto& t : threads) t.join();

  Status first;
  for (size_t pi = 0; pi < status.size(); ++pi) {
    // Prefer the root cause over Cancelled fallout from the abort.
    if (!status[pi].ok() &&
        (first.ok() || first.code() == Code::kCancelled)) {
      first = status[pi];
      if (failed_partition != nullptr) {
        *failed_partition = plan->parts[pi].addr;
      }
    }
  }
  if (!first.ok()) return first;
  return results;
}

void DistributedSession::AbortAndResetAllTasks() {
  // Short bounded retry: enough to get the cleanup through a lossy (but
  // alive) link, cheap enough that a dead task costs ~200ms, not a full
  // RPC deadline. Failures are ignored — an unreachable task is cleaned
  // up when it heals or fails the next attempt fast.
  RetryPolicy cleanup;
  cleanup.max_attempts = 8;
  cleanup.initial_backoff_ms = 1;
  cleanup.max_backoff_ms = 8;
  cleanup.deadline_ms = 200;
  for (const Partition& part : partitions_) {
    RemoteTask(router_, part.addr, protocol_, cleanup)
        .AbortStep("step recovery");
  }
  for (const Partition& part : partitions_) {
    RemoteTask(router_, part.addr, protocol_, cleanup).ResetStep();
  }
}

Result<std::map<std::string, Tensor>> DistributedSession::SnapshotAllTasks(
    const RetryPolicy& retry, int64_t* rpc_retries) {
  std::map<std::string, Tensor> snapshot;
  for (const Partition& part : partitions_) {
    RemoteTask task(router_, part.addr, protocol_, retry);
    auto vars = task.VarSnapshot();
    if (rpc_retries != nullptr) *rpc_retries += task.retries();
    TFHPC_RETURN_IF_ERROR(vars.status());
    for (auto& [name, tensor] : *vars) {
      snapshot.emplace(part.addr + "|" + name, std::move(tensor));
    }
  }
  return snapshot;
}

void DistributedSession::RestoreSnapshotMap(
    const std::map<std::string, Tensor>& snapshot, const RetryPolicy& retry,
    FaultReport* report) {
  // Snapshot keys name the task that owned each variable when the snapshot
  // was taken; eviction may have moved that slot since. Resolve through the
  // remap chain so a dead worker's state lands on its successor.
  std::set<std::string> current;
  for (const Partition& part : partitions_) current.insert(part.addr);

  std::map<std::string, std::map<std::string, Tensor>> per_task;
  for (const auto& [key, tensor] : snapshot) {
    const size_t bar = key.find('|');
    if (bar == std::string::npos) continue;
    const std::string addr = ResolveAddr(key.substr(0, bar));
    if (!current.count(addr)) continue;  // no surviving owner for this slot
    per_task[addr].emplace(key.substr(bar + 1), tensor);
  }
  for (const auto& [addr, vars] : per_task) {
    RemoteTask task(router_, addr, protocol_, retry);
    if (task.VarRestore(vars).ok() && report != nullptr) {
      report->variables_restored += static_cast<int>(vars.size());
    }
    if (report != nullptr) report->rpc_retries += task.retries();
  }
}

Result<int64_t> DistributedSession::SaveDurableCheckpoint(
    io::CheckpointManager* manager, const RetryPolicy& retry) {
  auto snapshot = SnapshotAllTasks(retry, nullptr);
  TFHPC_RETURN_IF_ERROR(snapshot.status());
  return manager->Save(*snapshot);
}

Status DistributedSession::EvictAndRebuild(const std::string& dead_addr,
                                           const StepRecoveryOptions& recovery,
                                           WorkerFaultRecord* record) {
  // Fence first: even if the worker is a zombie (hung, then wakes up), its
  // address is dead to the cluster from here on. Idempotent.
  router_->Kill(dead_addr);
  if (recovery.health != nullptr) recovery.health->Unwatch(dead_addr);
  shipped_.erase(dead_addr);

  // Prefer a hot spare: the slot keeps its (job, task) identity, so every
  // survivor's nodes — including rendezvous keys, which embed the *consumer
  // address* but never the producer's — are untouched; only new send nodes
  // targeting the spare are shipped.
  std::string spare;
  for (const std::string& s : recovery.spare_addrs) {
    if (s.empty() || addr_remap_.count(s)) continue;   // already consumed+died
    if (cluster_.FindTask(s).ok()) continue;           // already in the cluster
    spare = s;
    break;
  }

  Result<ClusterSpec> rebuilt = [&]() -> Result<ClusterSpec> {
    if (!spare.empty()) return cluster_.WithTaskReplaced(dead_addr, spare);
    if (!recovery.allow_shrink) {
      return FailedPrecondition(
          "worker " + dead_addr +
          " is dead, no spare is available and shrink is disabled");
    }
    // Shrink: tombstone the slot (indices must not shift — device strings
    // and shipped partitions address tasks by index) and re-place the dead
    // task's nodes on a surviving task of the same job.
    return cluster_.WithTaskReplaced(dead_addr, dead_addr + kTombstoneSuffix);
  }();
  TFHPC_RETURN_IF_ERROR(rebuilt.status());

  std::string successor = spare;
  if (spare.empty()) {
    // Pick the adoptive task: first live non-tombstone task in the dead
    // worker's job, else any surviving task.
    TFHPC_ASSIGN_OR_RETURN(auto job_task, cluster_.FindTask(dead_addr));
    std::string adoptive;
    for (const auto& job : rebuilt->def().jobs) {
      for (const auto& a : job.task_addrs) {
        if (a == dead_addr || IsTombstone(a) || addr_remap_.count(a)) continue;
        if (adoptive.empty()) adoptive = a;
        if (job.name == job_task.first) {
          adoptive = a;
          goto picked;
        }
      }
    }
  picked:
    if (adoptive.empty()) {
      return FailedPrecondition("no surviving task to shrink onto after " +
                                dead_addr + " died");
    }
    TFHPC_ASSIGN_OR_RETURN(auto adoptive_slot, rebuilt->FindTask(adoptive));
    // Re-place the dead task's nodes: re-pin them to the adoptive slot,
    // preserving device type/index where specified.
    for (const auto& [name, owner] : node_task_) {
      if (owner != dead_addr) continue;
      TFHPC_ASSIGN_OR_RETURN(
          DeviceName dev,
          DeviceName::Parse(graph_->FindNode(name)->requested_device()));
      dev.job = adoptive_slot.first;
      dev.task = adoptive_slot.second;
      TFHPC_RETURN_IF_ERROR(graph_->SetNodeDevice(name, dev.ToString()));
    }
    successor = adoptive;
    record->shrunk = true;
  }
  record->successor = successor;

  cluster_ = std::move(*rebuilt);
  addr_remap_[dead_addr] = successor;

  // Re-partition the (possibly re-placed) graph against the rebuilt cluster
  // and ship the diff: survivors receive only nodes they don't have yet.
  TFHPC_ASSIGN_OR_RETURN(PartitionResult parts,
                         PartitionGraph(*graph_, cluster_, default_device_));
  TFHPC_RETURN_IF_ERROR(ShipPartitions(parts, recovery.rpc_retry));

  if (recovery.health != nullptr && !spare.empty()) {
    recovery.health->Watch(spare);
  }
  return Status::OK();
}

Result<std::vector<Tensor>> DistributedSession::Run(
    const std::map<std::string, Tensor>& feeds,
    const std::vector<std::string>& fetches,
    const StepRecoveryOptions& recovery, FaultReport* report) {
  FaultReport local_report;
  FaultReport& rep = report != nullptr ? *report : local_report;
  rep = FaultReport{};

  // Snapshot all task variables into the checkpoint before touching
  // anything, so every re-attempt restarts from a consistent state even if
  // attempt #1 half-applied its updates.
  if (!recovery.checkpoint_path.empty()) {
    auto snapshot = SnapshotAllTasks(recovery.rpc_retry, &rep.rpc_retries);
    if (!snapshot.ok()) {
      rep.final_status = snapshot.status();
      return snapshot.status();
    }
    Status st = io::SaveCheckpoint(recovery.checkpoint_path, *snapshot);
    if (!st.ok()) {
      rep.final_status = st;
      return st;
    }
    rep.checkpoint_saved = true;
  }

  const int budget = std::max(1, recovery.max_step_attempts);
  for (int attempt = 1;; ++attempt) {
    rep.step_attempts = attempt;
    std::string failed_partition;
    std::string fenced_addr;
    int64_t fence_detect_ms = 0;
    auto r = RunOnce(feeds, fetches, recovery, &rep.rpc_retries,
                     &failed_partition, &fenced_addr, &fence_detect_ms);
    if (r.ok()) {
      rep.recovered = attempt > 1;
      rep.final_status = Status::OK();
      ++steps_completed_;
      if (recovery.checkpoints != nullptr &&
          recovery.checkpoint_every_n_steps > 0 &&
          steps_completed_ % recovery.checkpoint_every_n_steps == 0) {
        // Off the step path: snapshot now, write in the background.
        auto snap = SnapshotAllTasks(recovery.rpc_retry, &rep.rpc_retries);
        if (snap.ok()) {
          recovery.checkpoints->SaveAsync(std::move(*snap));
          rep.checkpoint_saved = true;
        }
      }
      return r;
    }
    if (rep.first_error.ok()) {
      rep.first_error = r.status();
      rep.failed_partition = failed_partition;
    }
    // Unwind the failed step everywhere so the session stays usable:
    // wake parked _Recvs, then clear the poisoned rendezvous. Unreachable
    // tasks are skipped (their control RPCs fail fast, uncounted).
    AbortAndResetAllTasks();

    // Only fault fallout is worth re-attempting; semantic errors (missing
    // node, bad feed, fixed resource limits) would fail identically again.
    // Transient kResourceExhausted (pool pressure, injected allocator fault)
    // is fault fallout too: the retried step runs after the unwind above
    // released every sibling's reservations.
    const Code code = r.status().code();
    const bool recoverable = code == Code::kUnavailable ||
                             code == Code::kDeadlineExceeded ||
                             code == Code::kCancelled ||
                             IsTransientResourceExhausted(r.status());
    if (attempt >= budget || !recoverable) {
      rep.final_status = r.status();
      return r.status();
    }

    // Job-level recovery: when the lease protocol confirms the failed
    // worker DEAD, evict it and restore durable state. A transient fault
    // (chaos drop, slow link) never reaches a DEAD verdict inside
    // dead_verdict_wait_ms, so it stays on the cheap step-retry path.
    if (recovery.health != nullptr) {
      // Conviction scans every current partition, not just the one whose
      // error was chosen as the root cause: when a worker dies mid-step,
      // the survivors' rendezvous sends to it usually hit their deadline
      // first and the step failure is attributed to an ALIVE task. Only
      // tasks the monitor actually leases can be convicted; an unwatched
      // address yields no evidence either way.
      const int64_t wait_start = SteadyNowMs();
      std::vector<std::string> dead;
      for (;;) {
        dead.clear();
        for (const Partition& p : partitions_) {
          if (addr_remap_.count(p.addr)) continue;
          if (recovery.health->lease_age_ms(p.addr) < 0) continue;
          if (recovery.health->health(p.addr) == TaskHealth::kDead) {
            dead.push_back(p.addr);
          }
        }
        if (!dead.empty()) break;
        if (SteadyNowMs() - wait_start >= recovery.dead_verdict_wait_ms) {
          break;  // nobody provably dead: treat the failure as transient
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      const int64_t waited = SteadyNowMs() - wait_start;
      bool evicted_any = false;
      for (const std::string& addr : dead) {
        WorkerFaultRecord rec;
        rec.addr = addr;
        if (addr == fenced_addr) {
          rec.verdict = "hung";  // watchdog fenced it mid-step
          rec.detect_ms = fence_detect_ms;
        } else {
          // Instant verdict = the lease had already expired when the step
          // failed; a delayed one = the failure beat the detector.
          rec.verdict = waited <= 2 ? "lease-expired" : "fail-stop";
          rec.detect_ms = waited;
        }
        const int64_t recover_start = SteadyNowMs();
        Status st = EvictAndRebuild(addr, recovery, &rec);
        if (!st.ok()) {
          rep.final_status = st;
          return st;
        }
        rec.recover_ms = SteadyNowMs() - recover_start;
        rep.worker_faults.push_back(rec);
        evicted_any = true;
      }
      if (evicted_any) {
        rep.workers_evicted = static_cast<int>(rep.worker_faults.size());
        // Roll every task back to the newest durable checkpoint so the
        // successors start from the same state the survivors re-run from.
        if (recovery.checkpoints != nullptr) {
          int64_t version = 0;
          auto loaded = recovery.checkpoints->RestoreLatest(&version);
          if (loaded.ok()) {
            RestoreSnapshotMap(*loaded, recovery.rpc_retry, &rep);
            rep.checkpoint_restored_version = version;
          }
        }
        int64_t total = 0;
        for (const auto& f : rep.worker_faults) {
          total += f.detect_ms + f.recover_ms;
        }
        rep.mttr_ms = total / static_cast<int64_t>(rep.worker_faults.size());
      }
    }

    // Step-snapshot restore: the pre-step snapshot is at least as fresh as
    // any durable checkpoint, so it wins when both exist (its keys are
    // remapped onto successors the same way).
    if (rep.checkpoint_saved && !recovery.checkpoint_path.empty()) {
      auto loaded = io::LoadCheckpoint(recovery.checkpoint_path);
      if (!loaded.ok()) {
        rep.final_status = loaded.status();
        return loaded.status();
      }
      RestoreSnapshotMap(*loaded, recovery.rpc_retry, &rep);
    }
  }
}

}  // namespace tfhpc::distrib
