// ServingController: admission control for multi-tenant step execution —
// the overload-protection layer in front of Session::Run / Server::RunStep.
//
// The paper's "millions of users" serving direction (and ROADMAP item 1)
// needs the runtime to degrade *predictably* under overload: a bounded
// number of steps execute concurrently, a bounded number wait in an
// admission queue with per-client fair dequeue (one slow tenant cannot
// monopolize the grant order), and everything beyond that is shed
// immediately with kUnavailable plus a retry-after hint. Queued waiters
// honor their step's CancellationToken, so an impatient client's ticket
// evaporates instead of occupying queue space.
//
// Shed-vs-queue policy: queue while the wait is likely shorter than the
// caller's patience (bounded by max_queued), shed the moment the queue is
// full — rejecting in microseconds is strictly better than timing out
// after seconds (the retried request lands on a drained server).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "core/status.h"
#include "core/thread_annotations.h"
#include "runtime/cancellation.h"

namespace tfhpc {

struct ServingOptions {
  // Steps executing concurrently; further admissions queue.
  int max_inflight = 8;
  // Waiting admissions across all clients; beyond this, load is shed.
  int max_queued = 64;
  // Retry-after hint (ms) embedded in the kUnavailable shed status.
  int64_t retry_after_ms = 50;
  // Memory-aware admission: total bytes of concurrently executing steps,
  // each charged its memory plan's static peak (Executable::
  // static_peak_bytes; 0 for a step compiled without a plan). 0 = no byte
  // budget. A step that fits the budget but not the current headroom
  // queues like any other admission; a step whose peak exceeds the whole
  // budget can never run here and is rejected with *permanent*
  // kResourceExhausted.
  int64_t max_estimated_bytes = 0;
};

struct ServingStats {
  int64_t admitted = 0;        // granted an execution slot
  int64_t shed = 0;            // rejected kUnavailable (queue full)
  int64_t expired_in_queue = 0;  // ticket cancelled or deadlined while queued
  int64_t completed = 0;       // Release() calls
  int64_t rejected_oversize = 0;  // peak alone exceeds the byte budget
  int inflight = 0;            // current executing steps
  int queued = 0;              // current waiting tickets
  int64_t inflight_bytes = 0;  // charged bytes of executing steps
};

class ServingController {
 public:
  explicit ServingController(ServingOptions options = {});

  // Acquires an execution slot for one step of `client_id`. Returns OK when
  // granted (the caller MUST pair it with Release(step_bytes), same
  // value); blocks in the fair admission queue while the server is at
  // max_inflight or the byte budget lacks headroom for `step_bytes`;
  // fails fast with kUnavailable when the queue is full, with permanent
  // kResourceExhausted when the step can never fit the budget, and with
  // the token's status if it cancels or its deadline passes while waiting.
  // New arrivals never barge past queued tickets even when a slot is free.
  Status Admit(const std::string& client_id, CancellationToken* token,
               int64_t step_bytes = 0);
  void Release(int64_t step_bytes = 0);

  ServingStats stats() const;
  const ServingOptions& options() const { return options_; }

  // RAII slot: admits on construction, releases on destruction iff admitted.
  class Slot {
   public:
    Slot(ServingController* controller, const std::string& client_id,
         CancellationToken* token, int64_t step_bytes = 0)
        : controller_(controller),
          step_bytes_(step_bytes),
          status_(controller->Admit(client_id, token, step_bytes)) {}
    ~Slot() {
      if (status_.ok()) controller_->Release(step_bytes_);
    }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    const Status& status() const { return status_; }

   private:
    ServingController* controller_;
    int64_t step_bytes_;
    Status status_;
  };

 private:
  struct Ticket {
    bool granted = false;
    int64_t bytes = 0;
  };

  // Grants free slots to queued tickets, round-robin across clients with
  // non-empty queues.
  void GrantNextLocked() TFHPC_REQUIRES(mu_);
  // Removes `t` from its client's queue (it was not granted).
  void RemoveTicketLocked(const std::string& client_id, Ticket* t)
      TFHPC_REQUIRES(mu_);

  // True when `bytes` more bytes fit the byte budget.
  bool BytesFitLocked(int64_t bytes) const TFHPC_REQUIRES(mu_) {
    return options_.max_estimated_bytes <= 0 ||
           inflight_bytes_ + bytes <= options_.max_estimated_bytes;
  }

  const ServingOptions options_;
  mutable Mutex mu_;
  // _any: waits on a MutexLock (BasicLockable) so mu_ keeps its capability
  // annotation through the cv handoff.
  std::condition_variable_any cv_;
  int inflight_ TFHPC_GUARDED_BY(mu_) = 0;
  int queued_ TFHPC_GUARDED_BY(mu_) = 0;
  int64_t inflight_bytes_ TFHPC_GUARDED_BY(mu_) = 0;
  // Per-client FIFO of waiting tickets (pointers into Admit stack frames —
  // valid because Admit never returns while its ticket is queued), plus a
  // round-robin cursor over client ids for the fair grant order.
  std::map<std::string, std::deque<Ticket*>> queues_ TFHPC_GUARDED_BY(mu_);
  // Last client granted; the next grant starts after it.
  std::string rr_cursor_ TFHPC_GUARDED_BY(mu_);
  ServingStats stats_ TFHPC_GUARDED_BY(mu_);
};

}  // namespace tfhpc
