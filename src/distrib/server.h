// A TensorFlow-style server (tf.train.Server): one per task, hosting its own
// device set, resource manager (variables + queues) and graph, and serving a
// worker service over the in-process router. The paper's applications are
// built from exactly these pieces: a ps job hosting variables/queues and
// worker jobs running compute graphs.
//
// Service methods (RpcEnvelope.method):
//   Ping        — liveness, echoes payload
//   ExtendGraph — payload: GraphDef; appends nodes to the server's graph
//   RegisterStep— payload: RegisterStepRequest (feed names + fetches +
//                 targets); compiles the signature once into an Executable
//                 and returns a step handle (RegisterStepResponse)
//   RunStep     — payload: RunStepRequest (step handle + feeds); executes
//                 the registered Executable (no graph walk). A request
//                 without a handle is kInvalidArgument; a handle compiled
//                 before a graph mutation is transparently recompiled, an
//                 unknown handle (restarted/evicted worker, registry
//                 eviction) fails with kNotFound so the client re-registers
//   Enqueue     — payload: queue name + tensor (+capacity); blocking
//   Dequeue     — payload: queue name; blocking; response carries tensor
//   CloseQueue  — payload: queue name
//   VarWrite    — payload: var name + tensor + accumulate? + want_value?
//   VarRead     — payload: var name; response carries tensor
//   VarSnapshot — empty payload; response: all initialized variables
//   VarRestore  — payload: named tensor map; bulk-restores variables
//   RendezvousSend — payload: key + tensor; deposits into this task's
//                    rendezvous (the receiving half of a cross-task _Send)
//
// Exactly-once under retries/duplication: requests carrying a non-zero
// client_id are deduplicated on (client_id, request_id) — a replayed
// request returns the cached response without re-running the handler, so
// retried/duplicated Enqueue, VarWrite(accumulate) and RunStep apply once.
// Requests carrying a non-zero checksum are verified before dispatch;
// corrupted frames get a retryable kUnavailable.
#pragma once

#include <list>
#include <memory>
#include <string_view>

#include "distrib/cluster_spec.h"
#include "distrib/retry.h"
#include "distrib/transport.h"
#include "runtime/serving.h"
#include "runtime/session.h"

namespace tfhpc::distrib {

struct ReplayCacheOptions {
  // Hard cap on resident entries; the least-recently-used entry is evicted
  // when a new insert would exceed it. Dedup state on a long job is thereby
  // bounded regardless of how many requests it serves.
  size_t max_entries = 4096;
  // When > 0, entries untouched for this long are expired. The TTL need
  // only cover the window in which a retry of an already-applied request
  // can still arrive (the client's retry deadline), not the job lifetime.
  int64_t ttl_ms = 0;
};

// Bounded (client_id, request_id) -> response cache giving non-idempotent
// service methods exactly-once semantics under retry and duplication.
// Growth is bounded two ways: an LRU max-entry cap and an optional
// time-to-live, both refreshed on Lookup (a replayed request is recent
// evidence the entry is still in its retry window).
class ReplayCache {
 public:
  explicit ReplayCache(size_t capacity = 4096)
      : ReplayCache(ReplayCacheOptions{capacity, 0}) {}
  explicit ReplayCache(ReplayCacheOptions options) : options_(options) {}

  // Returns true and fills *response if (client_id, request_id) was served
  // before. Thread-safe; the lock is never held across handler execution,
  // so two *concurrent* first deliveries of the same request may both run —
  // the in-process chaos transport replays duplicates sequentially, which
  // is the case this defends.
  bool Lookup(uint64_t client_id, uint64_t request_id,
              wire::RpcEnvelope* response);
  void Insert(uint64_t client_id, uint64_t request_id,
              const wire::RpcEnvelope& response);

  int64_t hits() const { return hits_.load(); }
  int64_t evictions() const { return evictions_.load(); }    // LRU cap
  int64_t expirations() const { return expirations_.load(); }  // TTL
  size_t size() const;

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct Entry {
    wire::RpcEnvelope response;
    std::list<Key>::iterator lru_pos;
    int64_t last_touch_ms = 0;
  };
  int64_t NowMs() const;
  // Drops entries whose TTL lapsed, sweeping from the LRU tail. Caller
  // holds mu_.
  void ExpireLocked(int64_t now_ms);

  const ReplayCacheOptions options_;
  mutable std::mutex mu_;
  std::map<Key, Entry> responses_;
  std::list<Key> lru_;  // front = most recently used
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> expirations_{0};
};

struct ServerDef {
  ClusterSpec cluster;
  std::string job;
  int task = 0;
  int num_gpus = 0;
  ComputeModel gpu_model = models::Gk210();
  // Wire protocol this server uses for outgoing traffic (rendezvous sends).
  WireProtocol protocol = WireProtocol::kRdma;
  // Retry/deadline policy for outgoing rendezvous sends (the _Send half of
  // cross-task edges). Default NoRetry preserves fail-fast steps; the
  // fault-tolerant DistributedSession raises it.
  RetryPolicy send_retry = RetryPolicy::NoRetry();
  // TensorFlow's ProtoBuf ceiling: "computation graphs ... cannot exceed
  // two gigabytes in size" (paper §IV). ExtendGraph rejects larger defs;
  // the workaround is the paper's: keep loop state in variables and ship
  // only the loop body. Overridable for tests.
  int64_t max_graphdef_bytes = int64_t{2} << 30;
  // Bounds for the exactly-once dedup cache (see ReplayCacheOptions).
  size_t replay_cache_entries = 4096;
  int64_t replay_cache_ttl_ms = 0;
  // Registered-step capacity: oldest handles are dropped beyond this (the
  // client re-registers on kNotFound). Also caps the shared session's
  // signature-keyed executable cache.
  size_t max_registered_steps = 1024;
  // Admission control for RunStep (multi-tenant overload protection).
  // 0 = off (default, unbounded concurrency — the pre-serving behavior).
  // When > 0, at most this many steps execute concurrently; further steps
  // wait in a fair per-client queue bounded by serving.max_queued, and
  // excess load is shed with kUnavailable + retry-after (see
  // runtime/serving.h). serving.max_inflight is overridden by this field.
  int max_inflight_steps = 0;
  ServingOptions serving{};
  // Per-step memory budget (bytes) applied to every RunStep on this worker;
  // 0 = unbudgeted. A step allocating past it fails with *permanent*
  // kResourceExhausted (retrying the identical step cannot help), siblings
  // on other workers are cancelled by the client's step recovery.
  int64_t step_memory_limit_bytes = 0;
  // Allocator fault schedule installed process-wide when the server starts
  // (chaos/testing only; see core/buffer.h). Injected failures surface as
  // transient kResourceExhausted step errors, never process aborts.
  AllocFaultSpec alloc_faults{};
};

class Server {
 public:
  // Creates the server and binds it to its cluster address on `router`.
  static Result<std::unique_ptr<Server>> Create(ServerDef def,
                                                InProcessRouter* router);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& address() const { return address_; }
  const ServerDef& def() const { return def_; }

  // Unbinds the server and unblocks everything parked on its queues and
  // rendezvous (pending ops fail with Cancelled/OutOfRange). Call this —
  // and join any threads running steps against this server — before
  // destroying it while work is in flight. Idempotent; the destructor
  // calls it as a backstop.
  void Shutdown();

  Graph& graph() { return graph_; }
  ResourceMgr& resources() { return resources_; }
  DeviceMgr& devices() { return *devices_; }
  // A session bound to this server's graph/devices/resources, with default
  // device "/job:<job>/task:<task>".
  std::unique_ptr<Session> NewSession();
  // The long-lived session every RunStep executes through; holds the
  // executable cache, so repeat signatures compile once per worker.
  Session& session() { return *session_; }

  // Total graph nodes executed by this worker's steps (fed nodes excluded).
  // The distributed partial-closure tests assert pruning with this.
  int64_t nodes_executed() const { return session_->nodes_executed(); }
  // RegisterStep requests served (handle registrations, not dedup replays).
  int64_t steps_registered() const { return steps_registered_.load(); }

  // Service entry point (invoked by the router on caller threads).
  wire::RpcEnvelope Handle(const wire::RpcEnvelope& request);

  // Dedup cache hits — how many retried/duplicated requests were answered
  // from cache instead of re-applied (tests assert exactly-once this way).
  int64_t dedup_hits() const { return replay_cache_.hits(); }
  const ReplayCache& replay_cache() const { return replay_cache_; }
  // Requests rejected because their payload checksum did not match.
  int64_t checksum_rejects() const { return checksum_rejects_.load(); }

  // Admission/shedding counters; zeroes when admission control is off.
  ServingStats serving_stats() const {
    return serving_ != nullptr ? serving_->stats() : ServingStats{};
  }
  // Requests refused before dispatch because their deadline had already
  // passed on arrival.
  int64_t expired_rejects() const { return expired_rejects_.load(); }

 private:
  Server(ServerDef def, InProcessRouter* router, std::string address);

  // `client_id` keys fair admission; `token` (null when the request carries
  // no deadline) bounds blocking work inside the handler.
  Result<wire::PayloadRef> Dispatch(const std::string& method,
                                    const wire::PayloadRef& payload,
                                    uint64_t client_id,
                                    CancellationToken* token);

  // Compiles (through the shared session's cache) under graph_mu_ so a
  // concurrent ExtendGraph cannot mutate the graph mid-compile. Execution
  // itself runs without the lock.
  Result<std::shared_ptr<const Executable>> PrepareLocked(
      const std::vector<std::string>& feed_keys,
      const std::vector<std::string>& fetches,
      const std::vector<std::string>& targets);

  ServerDef def_;
  InProcessRouter* router_;
  std::string address_;
  Graph graph_;
  std::unique_ptr<DeviceMgr> devices_;
  ResourceMgr resources_;
  std::unique_ptr<Session> session_;  // shared across steps; owns exe cache
  std::mutex graph_mu_;  // guards ExtendGraph vs step compiles
  bool shutdown_ = false;

  // Registered steps: handle -> compiled signature. A stale executable
  // (graph mutated since compile) is recompiled on next use.
  struct RegisteredStep {
    std::vector<std::string> feeds;  // feed keys the signature expects
    std::vector<std::string> fetches;
    std::vector<std::string> targets;
    std::shared_ptr<const Executable> executable;
  };
  std::mutex steps_mu_;
  std::map<uint64_t, RegisteredStep> registered_steps_;
  uint64_t next_step_handle_ = 1;
  std::atomic<int64_t> steps_registered_{0};
  ReplayCache replay_cache_;
  std::atomic<int64_t> checksum_rejects_{0};
  std::atomic<int64_t> expired_rejects_{0};
  // Non-null iff def_.max_inflight_steps > 0.
  std::unique_ptr<ServingController> serving_;
};

// ----- payload codecs (exposed for the client and tests) --------------------

// Runs the Executable registered under `step_handle` (RegisterStep fixed
// its fetches and targets); only the feed tensors ride the wire. Wire
// fields: 1 feeds, 4 simulate, 5 step_handle.
struct RunStepRequest {
  std::map<std::string, Tensor> feeds;
  bool simulate = false;  // always written; the server refuses true
  uint64_t step_handle = 0;  // 0 = none: the server refuses the request

  std::string Serialize() const;
  static Result<RunStepRequest> Parse(std::string_view payload);
};

// Queue and variable payloads. The tensor message is framed last in the
// payload head and its content bytes ride as a buffer view (see
// wire::SerializeTensorView); a null tensor leaves the field out, so the
// payload is inline bytes. The decoders accept every representation and
// never copy the frame: a split view payload (RDMA/rendezvous fast path,
// MPI's staged content), or contiguous bytes read in place (a frame staged
// by gRPC, inline bytes).
wire::PayloadRef EncodeQueuePayloadView(const std::string& queue,
                                        const Tensor* tensor,
                                        int64_t capacity);
Status DecodeQueuePayloadView(const wire::PayloadRef& payload,
                              std::string* queue, Tensor* tensor,
                              int64_t* capacity);

wire::PayloadRef EncodeVarPayloadView(const std::string& var,
                                      const Tensor* tensor, bool accumulate,
                                      bool want_value);
Status DecodeVarPayloadView(const wire::PayloadRef& payload, std::string* var,
                            Tensor* tensor, bool* accumulate,
                            bool* want_value);

std::string EncodeTensorList(const std::vector<Tensor>& tensors);
Result<std::vector<Tensor>> DecodeTensorList(std::string_view payload);

// name -> tensor maps (VarSnapshot/VarRestore payloads).
std::string EncodeNamedTensors(const std::map<std::string, Tensor>& vars);
Result<std::map<std::string, Tensor>> DecodeNamedTensors(
    std::string_view payload);

}  // namespace tfhpc::distrib
