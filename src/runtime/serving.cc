#include "runtime/serving.h"

#include <utility>

namespace tfhpc {

ServingController::ServingController(ServingOptions options)
    : options_(std::move(options)) {}

Status ServingController::Admit(const std::string& client_id,
                                CancellationToken* token,
                                int64_t step_bytes) {
  // Registered before mu_ so the callback (which takes mu_) cannot deadlock
  // against this frame, and deregistered after the wait completes.
  CancelCallback wake(token, [this] {
    MutexLock lk(mu_);
    cv_.notify_all();
  });

  MutexLock lk(mu_);
  if (token != nullptr) {
    Status ts = token->Check();
    if (!ts.ok()) return ts;  // dead on arrival: refuse before queueing
  }

  // A step that cannot fit the byte budget even on an idle server will
  // never be admittable: permanent kResourceExhausted (no [transient] tag),
  // so clients don't waste retries on it.
  if (options_.max_estimated_bytes > 0 &&
      step_bytes > options_.max_estimated_bytes) {
    ++stats_.rejected_oversize;
    return ResourceExhausted(
        "step static peak " + std::to_string(step_bytes) +
        " bytes exceeds the serving memory budget " +
        std::to_string(options_.max_estimated_bytes));
  }

  // Fast path — but only when nobody is queued: arrivals must not barge
  // past tickets already waiting their fair turn.
  if (inflight_ < options_.max_inflight && queued_ == 0 &&
      BytesFitLocked(step_bytes)) {
    ++inflight_;
    inflight_bytes_ += step_bytes;
    ++stats_.admitted;
    return Status::OK();
  }

  if (queued_ >= options_.max_queued) {
    ++stats_.shed;
    return Unavailable("admission queue full (" +
                       std::to_string(options_.max_queued) +
                       " waiting); retry_after_ms=" +
                       std::to_string(options_.retry_after_ms));
  }

  Ticket ticket;
  ticket.bytes = step_bytes;
  queues_[client_id].push_back(&ticket);
  ++queued_;
  GrantNextLocked();  // a slot may be free right now (we just joined the line)
  cv_.notify_all();   // the grant may have landed on another waiter's ticket

  auto done = [&] {
    if (ticket.granted) return true;
    return token != nullptr && !token->Check().ok();
  };
  if (token != nullptr && token->has_deadline()) {
    cv_.wait_until(lk, token->deadline(), done);
  } else {
    cv_.wait(lk, done);
  }

  if (!ticket.granted) {
    // Cancelled or deadlined while queued: withdraw the ticket.
    RemoveTicketLocked(client_id, &ticket);
    --queued_;
    ++stats_.expired_in_queue;
    if (token != nullptr) {
      Status ts = token->Check();
      if (!ts.ok()) return ts;
    }
    return DeadlineExceeded("step deadline exceeded while queued for admission");
  }
  // Granted. If the token died in the same instant, give the slot back.
  if (token != nullptr) {
    Status ts = token->Check();
    if (!ts.ok()) {
      --inflight_;
      inflight_bytes_ -= ticket.bytes;
      ++stats_.expired_in_queue;
      GrantNextLocked();
      cv_.notify_all();
      return ts;
    }
  }
  ++stats_.admitted;
  return Status::OK();
}

void ServingController::Release(int64_t step_bytes) {
  MutexLock lk(mu_);
  --inflight_;
  inflight_bytes_ -= step_bytes;
  ++stats_.completed;
  GrantNextLocked();
  cv_.notify_all();
}

void ServingController::GrantNextLocked() {
  while (inflight_ < options_.max_inflight && queued_ > 0) {
    // Round-robin: the first non-empty client queue strictly after the
    // cursor, wrapping. Ties resolve in client-id order — deterministic and
    // starvation-free (every non-empty queue is visited once per lap).
    auto it = queues_.upper_bound(rr_cursor_);
    for (size_t lap = 0; lap <= queues_.size(); ++lap) {
      if (it == queues_.end()) it = queues_.begin();
      if (!it->second.empty()) break;
      ++it;
    }
    if (it == queues_.end() || it->second.empty()) return;  // defensive
    Ticket* t = it->second.front();
    // Byte budget headroom gates the grant. When the fair-order pick does
    // not fit, stop granting entirely (no barging by smaller later steps):
    // inflight steps completing will free bytes and re-run this loop, so
    // the large step is delayed, never starved.
    if (!BytesFitLocked(t->bytes)) return;
    it->second.pop_front();
    rr_cursor_ = it->first;
    if (it->second.empty()) queues_.erase(it);
    t->granted = true;
    ++inflight_;
    inflight_bytes_ += t->bytes;
    --queued_;
  }
}

void ServingController::RemoveTicketLocked(const std::string& client_id,
                                           Ticket* t) {
  auto it = queues_.find(client_id);
  if (it == queues_.end()) return;
  auto& dq = it->second;
  for (auto pos = dq.begin(); pos != dq.end(); ++pos) {
    if (*pos == t) {
      dq.erase(pos);
      break;
    }
  }
  if (dq.empty()) queues_.erase(it);
}

ServingStats ServingController::stats() const {
  MutexLock lk(mu_);
  ServingStats s = stats_;
  s.inflight = inflight_;
  s.queued = queued_;
  s.inflight_bytes = inflight_bytes_;
  return s;
}

}  // namespace tfhpc
