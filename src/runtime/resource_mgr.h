// Per-server resources shared by every session created against that server:
// mutable variables (tf.Variable) and blocking FIFO queues (tf.FIFOQueue).
// The paper's reducer pattern (Fig. 5) is built entirely on these queues,
// and its CG solver keeps loop state in variables so the graph holds only
// the loop body (the 2 GB GraphDef limit workaround described in §IV).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "runtime/cancellation.h"
#include "runtime/rendezvous.h"

namespace tfhpc {

// A bounded, blocking multi-producer multi-consumer queue of tensors.
// capacity == 0 means unbounded. Close() wakes all waiters: pending
// dequeues drain remaining elements then fail with OutOfRange (TF's
// closed-queue contract); enqueues fail immediately with Cancelled.
class FIFOQueue {
 public:
  explicit FIFOQueue(std::string name, int64_t capacity = 0)
      : name_(std::move(name)), capacity_(capacity) {}

  // Blocks while full (bounded queues only). A non-null `token` bounds the
  // wait: the call fails with the token's status when it cancels or its
  // deadline passes, leaving the queue untouched.
  Status Enqueue(Tensor t, CancellationToken* token = nullptr);
  // Blocks while empty; `token` as above.
  Result<Tensor> Dequeue(CancellationToken* token = nullptr);
  // Non-blocking variants used by services that must not hold threads.
  Status TryEnqueue(Tensor t, bool* accepted);
  Result<Tensor> TryDequeue(bool* got);

  void Close();
  // Fails every *currently blocked* Enqueue/Dequeue with `status` without
  // closing the queue or dropping its contents — step cancellation must
  // release worker threads parked here, but the queue outlives the step
  // (other tenants keep using it). Implemented as an epoch bump: waiters
  // that entered before the bump observe it and bail out; calls arriving
  // after CancelWaiters proceed normally.
  void CancelWaiters(Status status);
  bool closed() const;
  size_t size() const;
  const std::string& name() const { return name_; }
  int64_t capacity() const { return capacity_; }

 private:
  const std::string name_;
  const int64_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Tensor> items_;
  bool closed_ = false;
  uint64_t cancel_epoch_ = 0;    // bumped by CancelWaiters
  Status cancel_status_;         // status delivered to the cancelled epoch
};

// A named mutable tensor with interior locking.
class Variable {
 public:
  explicit Variable(std::string name) : name_(std::move(name)) {}

  bool initialized() const;
  Result<Tensor> Read() const;  // returns a shallow snapshot
  void Write(Tensor t);
  // value += delta; initializes to a copy of delta when uninitialized.
  // Returns the new value. An invalid delta is kInvalidArgument.
  Result<Tensor> Accumulate(const Tensor& delta);

  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  mutable std::mutex mu_;
  Tensor value_;
  // True while value_'s buffer is one Accumulate allocated (the first sum's
  // copy or a later sum), never a tensor handed to Write: only such a buffer
  // may be summed in place.
  bool owns_buffer_ = false;
};

// Name -> resource maps with lazy creation.
class ResourceMgr {
 public:
  // Returns the queue named `name`, creating it with `capacity` on first
  // use. A later lookup with a different non-zero capacity is an error.
  Result<FIFOQueue*> LookupOrCreateQueue(const std::string& name,
                                         int64_t capacity = 0);
  Variable* LookupOrCreateVariable(const std::string& name);

  // Snapshot of all initialized variables (for checkpointing).
  std::map<std::string, Tensor> VariableSnapshot() const;
  // Bulk-restores variables from a checkpoint map.
  void RestoreVariables(const std::map<std::string, Tensor>& vars);

  // Closes all queues (used at server shutdown so blocked ops unwind).
  void CloseAllQueues();

  // Cancels every blocked queue waiter with `status`, leaving the queues
  // open — the step-abort path (queues are shared across steps/tenants and
  // must survive one step's cancellation).
  void CancelAllQueueWaiters(Status status);

  // The task's rendezvous (_Send/_Recv tensor exchange).
  Rendezvous& rendezvous() { return rendezvous_; }

  // Hook installed by the owning Server so kernels can push tensors to a
  // remote task's rendezvous over the wire (_Send with a target address).
  // Null on standalone runtimes: remote sends then fail cleanly.
  using RemoteSendFn =
      std::function<Status(const std::string& addr, const std::string& key,
                           const Tensor& tensor)>;
  void set_remote_send(RemoteSendFn fn) { remote_send_ = std::move(fn); }
  const RemoteSendFn& remote_send() const { return remote_send_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<FIFOQueue>> queues_;
  std::map<std::string, std::unique_ptr<Variable>> variables_;
  Rendezvous rendezvous_;
  RemoteSendFn remote_send_;
};

}  // namespace tfhpc
