#include "distrib/client.h"

namespace tfhpc::distrib {

namespace {
// Process-unique client ids; id 0 is reserved for "no dedup".
uint64_t NextClientId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

RemoteTask::RemoteTask(InProcessRouter* router, std::string addr,
                       WireProtocol proto, RetryPolicy retry)
    : router_(router),
      addr_(std::move(addr)),
      proto_(proto),
      retry_(retry),
      client_id_(NextClientId()) {}

Result<wire::PayloadRef> RemoteTask::Call(const std::string& method,
                                          wire::PayloadRef payload,
                                          CancellationToken* token) {
  wire::RpcEnvelope req;
  req.method = method;
  req.client_id = client_id_;
  // One request id per *logical* call: every retry below resends the same
  // id, so the server's dedup cache replays (not re-applies) ops whose
  // response was lost in flight.
  req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  req.checksum = wire::PayloadChecksum(payload);
  req.payload = std::move(payload);

  // Deadline propagation: refuse expired work client-side, stamp the
  // absolute deadline on the wire, and spend retries from the remaining
  // step budget instead of re-arming the full policy deadline per call.
  RetryPolicy effective = retry_;
  if (token != nullptr) {
    Status ts = token->Check();
    if (!ts.ok()) {
      return Status(ts.code(), addr_ + "/" + method + ": " + ts.message());
    }
    if (token->has_deadline()) {
      req.deadline_ns = token->deadline_ns();
      effective = ClampToRemaining(effective, token->remaining_ms());
    }
  }

  wire::PayloadRef out;
  int64_t retries = 0;
  Status st = CallWithRetry(
      effective, req.request_id,
      [&]() -> Status {
        // Re-check per attempt: a token cancelled mid-retry (peer failure,
        // deadline) stops the loop here — kCancelled/kDeadlineExceeded are
        // non-retryable, so this attempt's status is final.
        if (token != nullptr) {
          Status ts = token->Check();
          if (!ts.ok()) return ts;
        }
        auto r = router_->Call(addr_, proto_, req);
        if (!r.ok()) return r.status();
        if (r->status_code != 0) {
          // Re-apply the wire transient bit so RetryPolicy can distinguish
          // pool-pressure OOM (retryable) from budget breaches (permanent).
          if (r->transient &&
              static_cast<Code>(r->status_code) == Code::kResourceExhausted) {
            return TransientResourceExhausted(r->status_msg);
          }
          return Status(static_cast<Code>(r->status_code), r->status_msg);
        }
        out = std::move(r->payload);
        return Status::OK();
      },
      &retries);
  retries_.fetch_add(retries, std::memory_order_relaxed);
  if (!st.ok()) {
    return Status(st.code(), addr_ + "/" + method + ": " + st.message());
  }
  return out;
}

Status RemoteTask::Ping() {
  auto r = Call("Ping", "hello");
  if (!r.ok()) return r.status();
  if (*r != "hello") return Internal("ping payload corrupted");
  return Status::OK();
}

Status RemoteTask::Enqueue(const std::string& queue, const Tensor& tensor,
                           int64_t capacity, CancellationToken* token) {
  auto r = Call("Enqueue", EncodeQueuePayloadView(queue, &tensor, capacity),
                token);
  return r.ok() ? Status::OK() : r.status();
}

Result<Tensor> RemoteTask::Dequeue(const std::string& queue, int64_t capacity,
                                   CancellationToken* token) {
  TFHPC_ASSIGN_OR_RETURN(
      wire::PayloadRef payload,
      Call("Dequeue", EncodeQueuePayloadView(queue, nullptr, capacity),
           token));
  TFHPC_ASSIGN_OR_RETURN(Tensor t, wire::ParseTensorView(payload));
  // In-process zero-copy transports hand back the server's buffer: release
  // the payload's reference so a sole-owner tensor detaches in place, then
  // sever any server-device allocator attribution before the tensor escapes
  // to the caller (who may outlive the server).
  payload = wire::PayloadRef();
  t.DetachFromAllocator();
  return t;
}

Status RemoteTask::CloseQueue(const std::string& queue) {
  auto r = Call("CloseQueue", EncodeQueuePayloadView(queue, nullptr, 0));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::VarAssign(const std::string& var, const Tensor& tensor) {
  auto r = Call("VarWrite",
                EncodeVarPayloadView(var, &tensor, /*accumulate=*/false,
                                     /*want_value=*/false));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::VarAssignAdd(const std::string& var, const Tensor& tensor) {
  auto r = Call("VarWrite",
                EncodeVarPayloadView(var, &tensor, /*accumulate=*/true,
                                     /*want_value=*/false));
  return r.ok() ? Status::OK() : r.status();
}

Result<Tensor> RemoteTask::VarRead(const std::string& var) {
  TFHPC_ASSIGN_OR_RETURN(
      wire::PayloadRef payload,
      Call("VarRead", EncodeVarPayloadView(var, nullptr, /*accumulate=*/false,
                                           /*want_value=*/false)));
  TFHPC_ASSIGN_OR_RETURN(Tensor t, wire::ParseTensorView(payload));
  // The view may alias the live server-side variable: detach (copying if
  // still shared) so the result neither aliases mutable server state nor
  // keeps a pointer into the server device's allocator accounting.
  payload = wire::PayloadRef();
  t.DetachFromAllocator();
  return t;
}

Result<std::map<std::string, Tensor>> RemoteTask::VarSnapshot() {
  TFHPC_ASSIGN_OR_RETURN(wire::PayloadRef payload, Call("VarSnapshot", ""));
  std::string scratch;
  return DecodeNamedTensors(payload.Contiguous(&scratch));
}

Status RemoteTask::VarRestore(const std::map<std::string, Tensor>& vars) {
  auto r = Call("VarRestore", EncodeNamedTensors(vars));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::RendezvousSend(const std::string& key,
                                  const Tensor& tensor) {
  auto r = Call("RendezvousSend", EncodeQueuePayloadView(key, &tensor, 0));
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::AbortStep(const std::string& reason) {
  auto r = Call("AbortStep", reason);
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::ResetStep() {
  auto r = Call("ResetStep", "");
  return r.ok() ? Status::OK() : r.status();
}

Status RemoteTask::ExtendGraph(const wire::GraphDef& def) {
  auto r = Call("ExtendGraph", def.Serialize());
  return r.ok() ? Status::OK() : r.status();
}

Result<uint64_t> RemoteTask::RegisterStep(
    const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets, CancellationToken* token) {
  wire::RegisterStepRequest req;
  req.feeds = feed_names;
  req.fetches = fetches;
  req.targets = targets;
  TFHPC_ASSIGN_OR_RETURN(wire::PayloadRef payload,
                         Call("RegisterStep", req.Serialize(), token));
  std::string scratch;
  TFHPC_ASSIGN_OR_RETURN(
      wire::RegisterStepResponse resp,
      wire::RegisterStepResponse::Parse(payload.Contiguous(&scratch)));
  if (resp.handle == 0) {
    return Internal(addr_ + "/RegisterStep returned a null handle");
  }
  return resp.handle;
}

Result<std::vector<Tensor>> RemoteTask::RunRegisteredStep(
    uint64_t handle, const std::map<std::string, Tensor>& feeds, bool simulate,
    CancellationToken* token) {
  RunStepRequest req;
  req.feeds = feeds;
  req.simulate = simulate;
  req.step_handle = handle;
  TFHPC_ASSIGN_OR_RETURN(wire::PayloadRef payload,
                         Call("RunStep", req.Serialize(), token));
  std::string scratch;
  return DecodeTensorList(payload.Contiguous(&scratch));
}

}  // namespace tfhpc::distrib
