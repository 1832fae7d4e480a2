// Client-side handles to remote tasks: remote queues, remote variables and
// remote step execution — the primitives the paper's applications compose
// (workers pushing tiles into a reducer's queue, STREAM pushing assign_add
// to the parameter server, drivers running worker steps).
#pragma once

#include "distrib/retry.h"
#include "distrib/server.h"
#include "runtime/cancellation.h"

namespace tfhpc::distrib {

class RemoteTask {
 public:
  // `addr` must name a server registered on `router`; all calls ride the
  // chosen wire protocol. `retry` bounds every call with a deadline and
  // retries transient (kUnavailable) failures; the default NoRetry policy
  // surfaces the first error, preserving fail-fast semantics. Each task
  // handle gets a process-unique client id; retried sends reuse the same
  // (client_id, request_id), which is what lets the server deduplicate
  // non-idempotent ops (Enqueue, VarAssignAdd, RunStep) to exactly-once.
  RemoteTask(InProcessRouter* router, std::string addr, WireProtocol proto,
             RetryPolicy retry = RetryPolicy::NoRetry());

  const std::string& address() const { return addr_; }
  WireProtocol protocol() const { return proto_; }
  uint64_t client_id() const { return client_id_; }
  void set_retry_policy(RetryPolicy retry) { retry_ = retry; }
  const RetryPolicy& retry_policy() const { return retry_; }
  // Transport-level retries performed by this handle so far.
  int64_t retries() const { return retries_.load(); }

  Status Ping();

  // -- queues ----------------------------------------------------------------
  // A non-null `token` propagates the step deadline onto the wire (the
  // server refuses expired work and bounds its blocking waits by it) and
  // clamps this call's retry budget to the *remaining* time.
  Status Enqueue(const std::string& queue, const Tensor& tensor,
                 int64_t capacity = 0, CancellationToken* token = nullptr);
  Result<Tensor> Dequeue(const std::string& queue, int64_t capacity = 0,
                         CancellationToken* token = nullptr);
  Status CloseQueue(const std::string& queue);

  // -- variables ---------------------------------------------------------------
  Status VarAssign(const std::string& var, const Tensor& tensor);
  // The STREAM push: accumulates without returning the value (the paper
  // explicitly suppresses the fetch to avoid doubling traffic).
  Status VarAssignAdd(const std::string& var, const Tensor& tensor);
  Result<Tensor> VarRead(const std::string& var);
  // All initialized variables on the task (name -> value) — the wire half
  // of distributed checkpointing.
  Result<std::map<std::string, Tensor>> VarSnapshot();
  // Bulk-restores variables on the task from a snapshot map.
  Status VarRestore(const std::map<std::string, Tensor>& vars);

  // -- rendezvous ----------------------------------------------------------------
  // Deposits a tensor into the remote task's rendezvous (the wire half of a
  // cross-task _Send). Receiving is local: the owning task calls
  // resources().rendezvous().Recv(key).
  Status RendezvousSend(const std::string& key, const Tensor& tensor);
  // Step cancellation: unblocks every _Recv on the task (they fail with
  // Cancelled); ResetStep returns the rendezvous to a clean state.
  Status AbortStep(const std::string& reason = "");
  Status ResetStep();

  // -- graphs / steps ------------------------------------------------------------
  Status ExtendGraph(const wire::GraphDef& def);
  // Compile-once steps, the only way to run a step remotely: registers a
  // run signature (feed *names*, fetches, targets) with the task, which
  // compiles it into an Executable and returns a step handle for
  // RunRegisteredStep. Fails with kNotFound once the task restarts or
  // evicts the handle — re-register and retry.
  Result<uint64_t> RegisterStep(const std::vector<std::string>& feed_names,
                                const std::vector<std::string>& fetches,
                                const std::vector<std::string>& targets = {},
                                CancellationToken* token = nullptr);
  // Runs a registered step: only the handle and the feed tensors ride the
  // wire; fetches/targets were fixed at registration. The task refuses
  // `simulate` = true with kInvalidArgument before anything runs.
  Result<std::vector<Tensor>> RunRegisteredStep(
      uint64_t handle, const std::map<std::string, Tensor>& feeds,
      bool simulate = false, CancellationToken* token = nullptr);

 private:
  // `token`, when non-null, stamps the envelope's deadline_ns and clamps
  // the retry budget to the remaining step time (see ClampToRemaining) —
  // deadline propagation in the OSDI'16 sense: the budget travels with the
  // request instead of being re-armed per hop.
  Result<wire::PayloadRef> Call(const std::string& method,
                                wire::PayloadRef payload,
                                CancellationToken* token = nullptr);

  InProcessRouter* router_;
  std::string addr_;
  WireProtocol proto_;
  RetryPolicy retry_;
  uint64_t client_id_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<int64_t> retries_{0};
};

}  // namespace tfhpc::distrib
