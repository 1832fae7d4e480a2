// In-process transports with protocol-faithful staging semantics.
//
// All three protocols the paper benchmarks are distinct *code paths* here,
// not just labels: they differ in how many times payload bytes are copied
// or serialized on the way from caller to callee, mirroring the behaviour
// that produces Fig. 7's RDMA > MPI > gRPC ordering:
//
//   gRPC  — the whole envelope (method + payload) is protobuf-serialized
//           into a wire buffer, copied, and re-parsed at the destination
//           (2 serializations + 1 wire copy).
//   MPI   — payload staged into a host "send buffer" copy, then a wire
//           copy into the receiver's buffer, envelope header serialized
//           separately (2 payload copies; the paper notes GPUDirect is off,
//           so GPU tensors are first copied+serialized to host memory).
//   RDMA  — payload registered and written once directly into the remote
//           buffer (1 copy, no serialization of the payload).
//
// TransportStats counts those bytes so tests can verify the staging
// behaviour; virtual-time costs are charged by the DES, not here. Every
// staging copy lands in a pooled Buffer, and the server receives the
// payload as a view into it (DESIGN.md §9): the transport copies no byte
// it does not count, and a warm call faults in no staging pages.
//
// The router is also the fault-injection point for the fault-tolerance
// layer: a seeded ChaosConfig schedule can drop, delay, duplicate or
// corrupt any call, and Kill(addr) hard-fails an address until revived.
// Clients recover via distrib/retry.h policies plus the servers' request-id
// dedup (exactly-once for non-idempotent ops).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/status.h"
#include "wire/messages.h"

namespace tfhpc::distrib {

enum class WireProtocol { kGrpc, kMpi, kRdma };
const char* WireProtocolName(WireProtocol p);

struct TransportStats {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> payload_bytes{0};
  std::atomic<int64_t> bytes_serialized{0};  // protobuf-encoded bytes
  std::atomic<int64_t> bytes_copied{0};      // staging + wire memcpy bytes
  // Zero-copy accounting: view payloads whose buffer reference crossed the
  // transport without any staging copy (RDMA only), and the tensor bytes
  // they carried.
  std::atomic<int64_t> views_forwarded{0};
  std::atomic<int64_t> bytes_forwarded{0};
  // Chaos fault counters (per protocol, all faults this transport injected).
  std::atomic<int64_t> faults_dropped_request{0};
  std::atomic<int64_t> faults_dropped_response{0};
  std::atomic<int64_t> faults_duplicated{0};
  std::atomic<int64_t> faults_delayed{0};
  std::atomic<int64_t> faults_corrupted{0};
  std::atomic<int64_t> faults_kill_refused{0};  // calls to a Kill()ed address
  std::atomic<int64_t> faults_hang_blocked{0};  // calls that entered hang-wait

  int64_t total_faults() const {
    return faults_dropped_request.load() + faults_dropped_response.load() +
           faults_duplicated.load() + faults_delayed.load() +
           faults_corrupted.load() + faults_kill_refused.load() +
           faults_hang_blocked.load();
  }
  // Zeroes every counter (per-phase measurement without process restarts).
  void Reset();
};

// A seeded, deterministic fault schedule: whether call #i is faulted — and
// how — is a pure function of (seed, i), so chaos runs are reproducible.
// Rates are independent probabilities evaluated per call.
struct ChaosConfig {
  uint64_t seed = 0;
  // Drop the request before it reaches the handler (op NOT applied);
  // caller sees kUnavailable.
  double drop_request_rate = 0;
  // Run the handler, then drop the response (op APPLIED, caller sees
  // kUnavailable) — the case that makes blind retry at-least-twice and
  // requires server-side dedup for exactly-once.
  double drop_response_rate = 0;
  // Deliver the request to the handler a second time (network duplication).
  double duplicate_rate = 0;
  // Sleep a deterministic duration in [1, max_delay_ms] before delivery.
  double delay_rate = 0;
  int64_t max_delay_ms = 5;
  // Flip one payload byte in flight. Servers detect this via the envelope
  // checksum and answer with retryable kUnavailable.
  double corrupt_rate = 0;
};

// A service endpoint: handles one request, returns one response.
using ServiceHandler =
    std::function<wire::RpcEnvelope(const wire::RpcEnvelope&)>;

// Address -> handler routing for a process-local cluster, plus the protocol
// staging machinery. Thread-safe.
class InProcessRouter {
 public:
  Status Register(const std::string& addr, ServiceHandler handler);
  void Unregister(const std::string& addr);

  // Synchronous call over the chosen protocol. The request's payload bytes
  // physically traverse the protocol's staging path.
  Result<wire::RpcEnvelope> Call(const std::string& addr, WireProtocol proto,
                                 const wire::RpcEnvelope& request);

  const TransportStats& stats(WireProtocol proto) const {
    return stats_[static_cast<size_t>(proto)];
  }
  // Zeroes all per-protocol counters so benches and chaos tests can measure
  // per-phase traffic without process restarts.
  void ResetStats();

  // Failure injection for tests: the next `times` calls matching (addr,
  // method) fail with `error` before reaching the handler. method "*"
  // matches any method.
  void InjectFault(const std::string& addr, const std::string& method,
                   Status error, int times = 1);
  // Drops all pending injected faults.
  void ClearFaults();

  // -- chaos schedule ---------------------------------------------------------
  // Installs a seeded fault schedule applied to every subsequent call (on
  // top of InjectFault one-shots). Replaces any previous schedule.
  void EnableChaos(const ChaosConfig& config);
  void DisableChaos();
  // Calls examined by the chaos schedule so far (the schedule's counter).
  int64_t chaos_calls() const { return chaos_counter_.load(); }

  // -- fail-stop / fail-slow switches ----------------------------------------
  // Kill: the worker crashed. New calls are refused with kUnavailable and any
  // call blocked in a Hang() wait on the address is released with the same
  // error (the connection reset a real crash would produce). Kill also acts
  // as the *fence* in job-level recovery: once a DEAD verdict evicts a
  // worker, killing its address guarantees a zombie cannot keep serving.
  void Kill(const std::string& addr);
  // Hang: the worker is alive but wedged — calls block (holding the caller's
  // thread, as a stalled TCP peer would) until Unhang/Kill/Revive, or until
  // `max_block_ms` elapses, whereupon the call fails with kDeadlineExceeded.
  // The cap is a backstop so test teardown can always join caller threads.
  void Hang(const std::string& addr, int64_t max_block_ms = 30000);
  void Unhang(const std::string& addr);
  // Clears both the kill and hang switches for `addr`.
  void Revive(const std::string& addr);
  bool IsKilled(const std::string& addr) const;
  bool IsHung(const std::string& addr) const;

 private:
  ServiceHandler LookupHandler(const std::string& addr);
  // Returns the injected error for this call, or OK.
  Status ConsumeFault(const std::string& addr, const std::string& method);
  // Kill/hang gate: blocks while `addr` is hung, then admits the call (OK)
  // or refuses it (killed / hang cap expired).
  Status AdmitCall(const std::string& addr, TransportStats& st);

  struct Fault {
    std::string addr;
    std::string method;
    Status error;
    int remaining = 0;
  };

  // The chaos decision for one call, drawn from Philox(seed)(call index).
  struct ChaosDraw {
    bool drop_request = false;
    bool drop_response = false;
    bool duplicate = false;
    bool corrupt = false;
    int64_t delay_ms = 0;  // 0 = no delay
  };
  ChaosDraw DrawChaos();

  mutable std::mutex mu_;
  std::condition_variable liveness_cv_;  // wakes hang-waits on state change
  std::map<std::string, ServiceHandler> handlers_;
  std::vector<Fault> faults_;
  std::set<std::string> killed_;
  std::map<std::string, int64_t> hung_;  // addr -> max_block_ms
  bool chaos_enabled_ = false;
  ChaosConfig chaos_;
  std::atomic<int64_t> chaos_counter_{0};
  mutable TransportStats stats_[3];
};

}  // namespace tfhpc::distrib
