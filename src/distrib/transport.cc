#include "distrib/transport.h"

#include <chrono>
#include <thread>

#include "core/rng.h"

namespace tfhpc::distrib {
namespace {

// The envelope without its payload: what MPI and RDMA exchange over the
// side channel. Copies the header fields only, never the payload bytes.
wire::RpcEnvelope HeaderOf(const wire::RpcEnvelope& e) {
  wire::RpcEnvelope h;
  h.method = e.method;
  h.request_id = e.request_id;
  h.status_code = e.status_code;
  h.status_msg = e.status_msg;
  h.client_id = e.client_id;
  h.checksum = e.checksum;
  h.deadline_ns = e.deadline_ns;
  h.transient = e.transient;
  return h;
}

// One staging copy: the payload's bytes land in a fresh pooled block and
// are delivered as a view of it, which the receiver reads in place. The
// pool keeps the block mapped between calls, so a repeated push does not
// fault its staging pages in again.
wire::PayloadRef Stage(const wire::PayloadRef& p) {
  if (p.empty()) return wire::PayloadRef();
  std::shared_ptr<Buffer> block =
      Buffer::Allocate(p.size(), nullptr, ZeroInit::kNo);
  p.CopyTo(block->data());
  return wire::PayloadRef::View("", std::move(block), 0, p.size());
}

// The MPI/RDMA side channel: the header fields alone are framed and parsed
// back, and the payload moves beside them.
Result<wire::RpcEnvelope> ExchangeHeader(const wire::RpcEnvelope& request,
                                         TransportStats& st) {
  const wire::PayloadRef frame = HeaderOf(request).Serialize();
  st.bytes_serialized.fetch_add(static_cast<int64_t>(frame.size()),
                                std::memory_order_relaxed);
  return wire::RpcEnvelope::Parse(frame);
}

}  // namespace

const char* WireProtocolName(WireProtocol p) {
  switch (p) {
    case WireProtocol::kGrpc: return "grpc";
    case WireProtocol::kMpi: return "mpi";
    case WireProtocol::kRdma: return "rdma";
  }
  return "?";
}

void TransportStats::Reset() {
  calls.store(0);
  payload_bytes.store(0);
  bytes_serialized.store(0);
  bytes_copied.store(0);
  views_forwarded.store(0);
  bytes_forwarded.store(0);
  faults_dropped_request.store(0);
  faults_dropped_response.store(0);
  faults_duplicated.store(0);
  faults_delayed.store(0);
  faults_corrupted.store(0);
  faults_kill_refused.store(0);
  faults_hang_blocked.store(0);
}

void InProcessRouter::ResetStats() {
  for (TransportStats& st : stats_) st.Reset();
}

void InProcessRouter::EnableChaos(const ChaosConfig& config) {
  std::lock_guard<std::mutex> lk(mu_);
  chaos_ = config;
  chaos_enabled_ = true;
  chaos_counter_.store(0);
}

void InProcessRouter::DisableChaos() {
  std::lock_guard<std::mutex> lk(mu_);
  chaos_enabled_ = false;
}

void InProcessRouter::Kill(const std::string& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  killed_.insert(addr);
  liveness_cv_.notify_all();
}

void InProcessRouter::Hang(const std::string& addr, int64_t max_block_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  hung_[addr] = max_block_ms;
  liveness_cv_.notify_all();
}

void InProcessRouter::Unhang(const std::string& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  hung_.erase(addr);
  liveness_cv_.notify_all();
}

void InProcessRouter::Revive(const std::string& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  killed_.erase(addr);
  hung_.erase(addr);
  liveness_cv_.notify_all();
}

bool InProcessRouter::IsKilled(const std::string& addr) const {
  std::lock_guard<std::mutex> lk(mu_);
  return killed_.count(addr) > 0;
}

bool InProcessRouter::IsHung(const std::string& addr) const {
  std::lock_guard<std::mutex> lk(mu_);
  return hung_.count(addr) > 0;
}

Status InProcessRouter::AdmitCall(const std::string& addr,
                                  TransportStats& st) {
  std::unique_lock<std::mutex> lk(mu_);
  if (killed_.count(addr)) {
    st.faults_kill_refused.fetch_add(1, std::memory_order_relaxed);
    return Unavailable("fail-stop: worker " + addr + " is dead");
  }
  auto it = hung_.find(addr);
  if (it == hung_.end()) return Status::OK();
  // The peer is wedged: the caller's thread blocks here the way it would on
  // a stalled TCP connection. A Kill releases it with the connection-reset
  // error; Unhang/Revive let it proceed; the cap bounds test teardown.
  st.faults_hang_blocked.fetch_add(1, std::memory_order_relaxed);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(it->second);
  while (hung_.count(addr) && !killed_.count(addr)) {
    if (liveness_cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
        hung_.count(addr) && !killed_.count(addr)) {
      return DeadlineExceeded("rpc to hung worker " + addr + " timed out");
    }
  }
  if (killed_.count(addr)) {
    st.faults_kill_refused.fetch_add(1, std::memory_order_relaxed);
    return Unavailable("fail-stop: worker " + addr +
                       " died while the call was in flight");
  }
  return Status::OK();
}

InProcessRouter::ChaosDraw InProcessRouter::DrawChaos() {
  ChaosDraw draw;
  ChaosConfig cfg;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!chaos_enabled_) return draw;
    cfg = chaos_;
  }
  // Each call consumes one Philox block: four independent 32-bit draws,
  // one per fault dimension. Deterministic in (seed, call index).
  const uint64_t idx =
      static_cast<uint64_t>(chaos_counter_.fetch_add(1, std::memory_order_relaxed));
  const Philox::Block block = Philox(cfg.seed)(idx);
  const float u_fail = UniformFloat(block.v[0]);
  // One budget split between the two drop kinds: request loss first, then
  // response loss in the adjacent probability band.
  draw.drop_request = u_fail < cfg.drop_request_rate;
  draw.drop_response =
      !draw.drop_request &&
      u_fail < cfg.drop_request_rate + cfg.drop_response_rate;
  draw.duplicate = UniformFloat(block.v[1]) < cfg.duplicate_rate;
  draw.corrupt = UniformFloat(block.v[2]) < cfg.corrupt_rate;
  if (UniformFloat(block.v[3]) < cfg.delay_rate && cfg.max_delay_ms > 0) {
    draw.delay_ms = 1 + static_cast<int64_t>(block.v[3] %
                                             static_cast<uint32_t>(cfg.max_delay_ms));
  }
  return draw;
}

Status InProcessRouter::Register(const std::string& addr,
                                 ServiceHandler handler) {
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = handlers_.emplace(addr, std::move(handler));
  (void)it;
  if (!inserted) return AlreadyExists("server already bound to " + addr);
  return Status::OK();
}

void InProcessRouter::Unregister(const std::string& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  handlers_.erase(addr);
}

ServiceHandler InProcessRouter::LookupHandler(const std::string& addr) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = handlers_.find(addr);
  return it == handlers_.end() ? ServiceHandler() : it->second;
}

void InProcessRouter::InjectFault(const std::string& addr,
                                  const std::string& method, Status error,
                                  int times) {
  TFHPC_CHECK(!error.ok()) << "injected fault must be an error";
  std::lock_guard<std::mutex> lk(mu_);
  faults_.push_back(Fault{addr, method, std::move(error), times});
}

void InProcessRouter::ClearFaults() {
  std::lock_guard<std::mutex> lk(mu_);
  faults_.clear();
}

Status InProcessRouter::ConsumeFault(const std::string& addr,
                                     const std::string& method) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = faults_.begin(); it != faults_.end(); ++it) {
    if (it->addr == addr && (it->method == "*" || it->method == method)) {
      Status error = it->error;
      if (--it->remaining <= 0) faults_.erase(it);
      return error;
    }
  }
  return Status::OK();
}

Result<wire::RpcEnvelope> InProcessRouter::Call(
    const std::string& addr, WireProtocol proto,
    const wire::RpcEnvelope& request) {
  TransportStats& st = stats_[static_cast<size_t>(proto)];
  TFHPC_RETURN_IF_ERROR(AdmitCall(addr, st));
  ServiceHandler handler = LookupHandler(addr);
  if (!handler) return Unavailable("no server at " + addr);
  TFHPC_RETURN_IF_ERROR(ConsumeFault(addr, request.method));
  const ChaosDraw draw = DrawChaos();
  if (draw.delay_ms > 0) {
    st.faults_delayed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(draw.delay_ms));
  }
  if (draw.drop_request) {
    st.faults_dropped_request.fetch_add(1, std::memory_order_relaxed);
    return Unavailable("chaos: request to " + addr + "/" + request.method +
                       " dropped in flight");
  }
  st.calls.fetch_add(1, std::memory_order_relaxed);
  st.payload_bytes.fetch_add(static_cast<int64_t>(request.payload.size()),
                             std::memory_order_relaxed);

  wire::RpcEnvelope delivered;
  switch (proto) {
    case WireProtocol::kGrpc: {
      // Full protobuf round trip of the envelope: serialize into one frame,
      // the TCP copy into a second block, parse there. The delivered
      // payload is a sub-view of the received frame.
      const wire::PayloadRef frame = request.Serialize();
      st.bytes_serialized.fetch_add(static_cast<int64_t>(frame.size()),
                                    std::memory_order_relaxed);
      const wire::PayloadRef received = Stage(frame);
      st.bytes_copied.fetch_add(static_cast<int64_t>(received.size()),
                                std::memory_order_relaxed);
      TFHPC_ASSIGN_OR_RETURN(delivered, wire::RpcEnvelope::Parse(received));
      break;
    }
    case WireProtocol::kMpi: {
      // Header serialized; payload staged (send buffer) then wired.
      TFHPC_ASSIGN_OR_RETURN(delivered, ExchangeHeader(request, st));
      if (request.payload.is_view()) {
        // Registered (pinned) tensor memory: MPI can send straight from the
        // tensor buffer, so the payload is staged exactly once — into the
        // receiver's buffer. The content gets a block of its own size, which
        // the receiver adopts as the tensor's buffer.
        const wire::PayloadRef content = Stage(request.payload.Slice(
            request.payload.head().size(), request.payload.view_size()));
        st.bytes_copied.fetch_add(static_cast<int64_t>(request.payload.size()),
                                  std::memory_order_relaxed);
        delivered.payload =
            wire::PayloadRef::View(request.payload.head(), content.buffer(), 0,
                                   content.size());
      } else {
        // Unpinned inline bytes: classic host send-buffer stage, then the
        // wire copy into the receiver's buffer (2 copies).
        const wire::PayloadRef staging = Stage(request.payload);
        delivered.payload = Stage(staging);
        st.bytes_copied.fetch_add(2 * static_cast<int64_t>(staging.size()),
                                  std::memory_order_relaxed);
      }
      break;
    }
    case WireProtocol::kRdma: {
      // Only the tiny header is exchanged via the side channel; the payload
      // either crosses by buffer reference (view: true zero-copy) or lands
      // in the remote buffer in one registered-buffer write.
      TFHPC_ASSIGN_OR_RETURN(delivered, ExchangeHeader(request, st));
      if (request.payload.is_view()) {
        // One-sided RDMA write of already-registered memory: the receiver
        // gets a reference to the same bytes; nothing is serialized or
        // copied in this process model.
        st.views_forwarded.fetch_add(1, std::memory_order_relaxed);
        st.bytes_forwarded.fetch_add(
            static_cast<int64_t>(request.payload.view_size()),
            std::memory_order_relaxed);
        delivered.payload = request.payload;
      } else {
        delivered.payload = Stage(request.payload);
        st.bytes_copied.fetch_add(
            static_cast<int64_t>(delivered.payload.size()),
            std::memory_order_relaxed);
      }
      break;
    }
  }

  if (draw.corrupt && !delivered.payload.empty()) {
    // Flip one deterministic byte in flight. The server detects the
    // mismatch against the envelope checksum and answers with retryable
    // kUnavailable instead of acting on garbage. Detaches view payloads
    // first so the sender's live tensor buffer is never mutated.
    st.faults_corrupted.fetch_add(1, std::memory_order_relaxed);
    delivered.payload.CorruptByteForTest(delivered.payload.size() / 2);
  }

  wire::RpcEnvelope response = handler(delivered);
  if (draw.duplicate) {
    // The network delivered the request twice: the handler runs again with
    // the identical envelope. Servers dedup on (client_id, request_id), so
    // non-idempotent ops still apply exactly once; the duplicate's response
    // is discarded, as a real client would discard it.
    st.faults_duplicated.fetch_add(1, std::memory_order_relaxed);
    (void)handler(delivered);
  }
  if (draw.drop_response) {
    st.faults_dropped_response.fetch_add(1, std::memory_order_relaxed);
    return Unavailable("chaos: response from " + addr + "/" + request.method +
                       " dropped in flight");
  }
  // Responses ride the same protocol; count their payload too.
  st.payload_bytes.fetch_add(static_cast<int64_t>(response.payload.size()),
                             std::memory_order_relaxed);
  return response;
}

}  // namespace tfhpc::distrib
