#include "distrib/server.h"

#include <chrono>
#include <optional>

#include "distrib/client.h"
#include "wire/coded.h"

namespace tfhpc::distrib {

// ----- ReplayCache -----------------------------------------------------------

int64_t ReplayCache::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ReplayCache::ExpireLocked(int64_t now_ms) {
  if (options_.ttl_ms <= 0) return;
  // Recency order doubles as touch order (Lookup refreshes both), so the
  // LRU tail is always the stalest entry: sweep from there and stop at the
  // first live one.
  while (!lru_.empty()) {
    auto it = responses_.find(lru_.back());
    if (it == responses_.end()) {  // defensive; should not happen
      lru_.pop_back();
      continue;
    }
    if (now_ms - it->second.last_touch_ms < options_.ttl_ms) break;
    responses_.erase(it);
    lru_.pop_back();
    expirations_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ReplayCache::Lookup(uint64_t client_id, uint64_t request_id,
                         wire::RpcEnvelope* response) {
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t now = NowMs();
  ExpireLocked(now);
  auto it = responses_.find(Key{client_id, request_id});
  if (it == responses_.end()) return false;
  *response = it->second.response;
  it->second.last_touch_ms = now;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // refresh recency
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ReplayCache::Insert(uint64_t client_id, uint64_t request_id,
                         const wire::RpcEnvelope& response) {
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t now = NowMs();
  ExpireLocked(now);
  const Key key{client_id, request_id};
  if (responses_.count(key)) return;
  while (responses_.size() >= std::max<size_t>(1, options_.max_entries)) {
    responses_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.push_front(key);
  responses_.emplace(key, Entry{response, lru_.begin(), now});
}

size_t ReplayCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return responses_.size();
}

// ----- payload codecs ---------------------------------------------------------

namespace {

// One entry of a name -> tensor map, as field 1 of its message:
// {1: name, 2: tensor}. RunStepRequest feeds and VarSnapshot/VarRestore
// payloads share it.
void WriteNamedTensor(wire::CodedOutput& co, const std::string& name,
                      const Tensor& tensor) {
  std::string entry;
  wire::CodedOutput eo(&entry);
  eo.WriteString(1, name);
  eo.WriteMessage(2, wire::SerializeTensor(tensor));
  co.WriteMessage(1, entry);
}

// Reads the entry whose field-1 tag `in` just read into `out`. An entry
// without a name is kInvalidArgument: it could bind to nothing.
Status ReadNamedTensor(wire::CodedInput& in,
                       std::map<std::string, Tensor>* out) {
  const uint8_t* d;
  size_t s;
  TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
  wire::CodedInput ein(d, s);
  std::string name;
  Tensor tensor;
  while (!ein.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(ein.ReadTag(&field, &wt));
    if (field == 1) {
      TFHPC_RETURN_IF_ERROR(ein.ReadString(&name));
    } else if (field == 2) {
      const uint8_t* td;
      size_t ts;
      TFHPC_RETURN_IF_ERROR(ein.ReadBytesView(&td, &ts));
      TFHPC_ASSIGN_OR_RETURN(tensor, wire::ParseTensor(td, ts));
    } else {
      TFHPC_RETURN_IF_ERROR(ein.SkipField(wt));
    }
  }
  if (name.empty()) return InvalidArgument("named tensor entry without name");
  out->emplace(std::move(name), std::move(tensor));
  return Status::OK();
}

}  // namespace

std::string RunStepRequest::Serialize() const {
  std::string out;
  wire::CodedOutput co(&out);
  for (const auto& [name, tensor] : feeds) WriteNamedTensor(co, name, tensor);
  co.WriteBool(4, simulate);
  if (step_handle != 0) co.WriteUInt64(5, step_handle);
  return out;
}

Result<RunStepRequest> RunStepRequest::Parse(std::string_view payload) {
  wire::CodedInput in(payload);
  RunStepRequest req;
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    switch (field) {
      case 1:
        TFHPC_RETURN_IF_ERROR(ReadNamedTensor(in, &req.feeds));
        break;
      case 4: {
        uint64_t v;
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
        req.simulate = v != 0;
        break;
      }
      case 5: {
        TFHPC_RETURN_IF_ERROR(in.ReadVarint(&req.step_handle));
        break;
      }
      default:
        TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return req;
}

namespace {

// Appends a length-delimited tensor message whose content bytes ride as a
// buffer view: the tag + total length + tensor header go into `head`, the
// content (if any) stays in the tensor's buffer. The tensor message must be
// the FINAL field of the frame so the decoder can splice head-remainder +
// view back together.
wire::PayloadRef FinishWithTensorView(std::string head, uint32_t field,
                                      const Tensor& tensor) {
  wire::PayloadRef tp = wire::SerializeTensorView(tensor);
  wire::CodedOutput co(&head);
  co.WriteTag(field, wire::WireType::kLengthDelimited);
  co.WriteVarint(tp.size());
  head.append(tp.head());
  if (!tp.is_view()) return wire::PayloadRef(std::move(head));
  return wire::PayloadRef::View(std::move(head), tp.buffer(),
                                tp.view_offset(), tp.view_size());
}

// Decodes the length-delimited tensor field whose tag `in` just read. The
// decoders walk payload.first_range(): a contiguous payload (inline bytes,
// or a frame a transport staged) holds the field as ordinary bytes, read in
// place; a null `tensor` skips it. In a split payload the field is the
// inverse of FinishWithTensorView: the rest of the head plus the whole view,
// so it ends the frame and leaves `in` at its end.
Status ReadTensorField(const wire::PayloadRef& payload, wire::CodedInput& in,
                       Tensor* tensor) {
  if (payload.is_contiguous()) {
    const uint8_t* d;
    size_t s;
    TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
    if (tensor != nullptr) {
      TFHPC_ASSIGN_OR_RETURN(*tensor, wire::ParseTensor(d, s));
    }
    return Status::OK();
  }
  if (tensor == nullptr) {
    return InvalidArgument("unexpected tensor in payload");
  }
  uint64_t len;
  TFHPC_RETURN_IF_ERROR(in.ReadVarint(&len));
  const size_t start = payload.head().size() - in.TakeRest().size();
  if (len != payload.size() - start) {
    return InvalidArgument("payload: tensor view must terminate the frame");
  }
  TFHPC_ASSIGN_OR_RETURN(*tensor,
                         wire::ParseTensorView(payload.Slice(start, len)));
  return Status::OK();
}

}  // namespace

wire::PayloadRef EncodeQueuePayloadView(const std::string& queue,
                                        const Tensor* tensor,
                                        int64_t capacity) {
  std::string head;
  wire::CodedOutput co(&head);
  co.WriteString(1, queue);
  if (capacity > 0) co.WriteUInt64(3, static_cast<uint64_t>(capacity));
  if (tensor == nullptr) return wire::PayloadRef(std::move(head));
  return FinishWithTensorView(std::move(head), 2, *tensor);
}

Status DecodeQueuePayloadView(const wire::PayloadRef& payload,
                              std::string* queue, Tensor* tensor,
                              int64_t* capacity) {
  wire::CodedInput in(payload.first_range());
  *capacity = 0;
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field == 1) {
      TFHPC_RETURN_IF_ERROR(in.ReadString(queue));
    } else if (field == 3) {
      uint64_t v;
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      *capacity = static_cast<int64_t>(v);
    } else if (field == 2 && wt == wire::WireType::kLengthDelimited) {
      TFHPC_RETURN_IF_ERROR(ReadTensorField(payload, in, tensor));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  if (queue->empty()) return InvalidArgument("queue payload without name");
  return Status::OK();
}

wire::PayloadRef EncodeVarPayloadView(const std::string& var,
                                      const Tensor* tensor, bool accumulate,
                                      bool want_value) {
  std::string head;
  wire::CodedOutput co(&head);
  co.WriteString(1, var);
  co.WriteBool(3, accumulate);
  co.WriteBool(4, want_value);
  if (tensor == nullptr) return wire::PayloadRef(std::move(head));
  return FinishWithTensorView(std::move(head), 2, *tensor);
}

Status DecodeVarPayloadView(const wire::PayloadRef& payload, std::string* var,
                            Tensor* tensor, bool* accumulate,
                            bool* want_value) {
  wire::CodedInput in(payload.first_range());
  *accumulate = false;
  *want_value = false;
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    uint64_t v = 0;
    if (field == 1) {
      TFHPC_RETURN_IF_ERROR(in.ReadString(var));
    } else if (field == 3) {
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      *accumulate = v != 0;
    } else if (field == 4) {
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      *want_value = v != 0;
    } else if (field == 2 && wt == wire::WireType::kLengthDelimited) {
      TFHPC_RETURN_IF_ERROR(ReadTensorField(payload, in, tensor));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  if (var->empty()) return InvalidArgument("var payload without name");
  return Status::OK();
}

std::string EncodeTensorList(const std::vector<Tensor>& tensors) {
  std::string out;
  wire::CodedOutput co(&out);
  for (const Tensor& t : tensors) co.WriteMessage(1, wire::SerializeTensor(t));
  return out;
}

Result<std::vector<Tensor>> DecodeTensorList(std::string_view payload) {
  wire::CodedInput in(payload);
  std::vector<Tensor> tensors;
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field == 1) {
      const uint8_t* d;
      size_t s;
      TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
      TFHPC_ASSIGN_OR_RETURN(Tensor t, wire::ParseTensor(d, s));
      tensors.push_back(std::move(t));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return tensors;
}

std::string EncodeNamedTensors(const std::map<std::string, Tensor>& vars) {
  std::string out;
  wire::CodedOutput co(&out);
  for (const auto& [name, tensor] : vars) WriteNamedTensor(co, name, tensor);
  return out;
}

Result<std::map<std::string, Tensor>> DecodeNamedTensors(
    std::string_view payload) {
  wire::CodedInput in(payload);
  std::map<std::string, Tensor> vars;
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    if (field == 1) {
      TFHPC_RETURN_IF_ERROR(ReadNamedTensor(in, &vars));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return vars;
}

// ----- Server ----------------------------------------------------------------

Result<std::unique_ptr<Server>> Server::Create(ServerDef def,
                                               InProcessRouter* router) {
  TFHPC_ASSIGN_OR_RETURN(std::string address,
                         def.cluster.TaskAddress(def.job, def.task));
  std::unique_ptr<Server> server(
      new Server(std::move(def), router, std::move(address)));
  TFHPC_RETURN_IF_ERROR(router->Register(
      server->address_, [raw = server.get()](const wire::RpcEnvelope& req) {
        return raw->Handle(req);
      }));
  return server;
}

Server::Server(ServerDef def, InProcessRouter* router, std::string address)
    : def_(std::move(def)),
      router_(router),
      address_(std::move(address)),
      replay_cache_(ReplayCacheOptions{def_.replay_cache_entries,
                                       def_.replay_cache_ttl_ms}) {
  devices_ = DeviceMgr::CreateLocal(def_.job, def_.task, def_.num_gpus,
                                    def_.gpu_model);
  if (def_.alloc_faults.enabled()) {
    AllocFaultInjector::Global().Install(def_.alloc_faults);
  }
  if (def_.max_inflight_steps > 0) {
    ServingOptions so = def_.serving;
    so.max_inflight = def_.max_inflight_steps;
    serving_ = std::make_unique<ServingController>(so);
  }
  // One long-lived session shared by every step: compiled Executables (and
  // their placement/kernel work) survive across RunStep requests instead of
  // dying with a per-request session.
  session_ = NewSession();
  session_->set_max_cached_executables(
      std::max<size_t>(1, def_.max_registered_steps));
  // Give kernels a path to remote rendezvous (_Send with a target): a
  // RendezvousSend RPC over this server's configured protocol, retried
  // under def.send_retry. Each send is its own RemoteTask, so it carries
  // its own client id and its retries reuse (client_id, request_id): the
  // receiver's replay cache answers a retry after a lost response instead
  // of depositing the tensor twice.
  resources_.set_remote_send([this](const std::string& addr,
                                    const std::string& key,
                                    const Tensor& tensor) -> Status {
    return RemoteTask(router_, addr, def_.protocol, def_.send_retry)
        .RendezvousSend(key, tensor);
  });
}

void Server::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  router_->Unregister(address_);
  // Unblock anything parked on this server's queues or rendezvous.
  resources_.CloseAllQueues();
  resources_.rendezvous().Abort(
      Cancelled("server " + address_ + " shut down"));
}

Server::~Server() { Shutdown(); }

std::unique_ptr<Session> Server::NewSession() {
  DeviceName default_device;
  default_device.job = def_.job;
  default_device.task = def_.task;
  return std::make_unique<Session>(&graph_, devices_.get(), &resources_,
                                   default_device);
}

Result<std::shared_ptr<const Executable>> Server::PrepareLocked(
    const std::vector<std::string>& feed_keys,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets) {
  std::lock_guard<std::mutex> lk(graph_mu_);
  return session_->Prepare(feed_keys, fetches, targets);
}

wire::RpcEnvelope Server::Handle(const wire::RpcEnvelope& request) {
  wire::RpcEnvelope response;
  response.method = request.method;
  response.request_id = request.request_id;

  // Integrity first: a frame corrupted in flight must neither be applied
  // nor poison the dedup cache. The reject is kUnavailable so clients
  // retry the (uncorrupted) send.
  if (request.checksum != 0 &&
      wire::PayloadChecksum(request.payload) != request.checksum) {
    checksum_rejects_.fetch_add(1, std::memory_order_relaxed);
    const Status st = Unavailable("payload checksum mismatch for " +
                                  request.method + " (corrupted in flight)");
    response.status_code = static_cast<int32_t>(st.code());
    response.status_msg = st.message();
    return response;
  }

  // Exactly-once: a retried or network-duplicated request replays the
  // cached response instead of re-running a non-idempotent handler.
  if (request.client_id != 0 &&
      replay_cache_.Lookup(request.client_id, request.request_id, &response)) {
    response.request_id = request.request_id;
    return response;
  }

  // Deadline propagation: rebuild the step's token from the wire deadline
  // (absolute steady-clock ns — valid because the in-process cluster shares
  // one clock) and refuse already-expired work before dispatching. Refusing
  // up front is the cheap half of overload protection: an expired step
  // would burn a worker slot producing a result nobody is waiting for.
  std::unique_ptr<CancellationToken> token;
  if (request.deadline_ns != 0) {
    token = std::make_unique<CancellationToken>(
        CancellationToken::Clock::time_point(
            std::chrono::nanoseconds(request.deadline_ns)));
    Status expired = token->Check();
    if (!expired.ok()) {
      expired_rejects_.fetch_add(1, std::memory_order_relaxed);
      response.status_code = static_cast<int32_t>(Code::kDeadlineExceeded);
      response.status_msg =
          request.method + " arrived after its deadline; refused";
      if (request.client_id != 0) {
        replay_cache_.Insert(request.client_id, request.request_id, response);
      }
      return response;
    }
  }

  auto result = Dispatch(request.method, request.payload, request.client_id,
                         token.get());
  if (result.ok()) {
    response.payload = std::move(*result);
  } else {
    response.status_code = static_cast<int32_t>(result.status().code());
    response.status_msg = result.status().message();
    // kResourceExhausted crosses the wire with its taxonomy: the transient
    // bit tells the client's RetryPolicy whether backoff-and-retry is
    // worthwhile (pool pressure) or futile (fixed-budget breach).
    response.transient = IsTransientResourceExhausted(result.status());
  }
  // Cache successes and permanent errors. Retryable failures (a transient
  // kUnavailable from e.g. a remote send inside RunStep, or pool-pressure
  // kResourceExhausted) stay uncached so the client's retry of the same
  // request id re-runs the handler instead of replaying the stale error.
  if (request.client_id != 0 &&
      !IsRetryable(Status(static_cast<Code>(response.status_code),
                          response.status_msg))) {
    replay_cache_.Insert(request.client_id, request.request_id, response);
  }
  return response;
}

Result<wire::PayloadRef> Server::Dispatch(const std::string& method,
                                          const wire::PayloadRef& payload,
                                          uint64_t client_id,
                                          CancellationToken* token) {
  // Methods that parse with the classic string codecs read a contiguous
  // payload in place and flatten only a split one, which no sender builds
  // for them; the tensor-bearing methods decode either shape in place.
  std::string flat_scratch;

  if (method == "Ping") return payload;

  if (method == "ExtendGraph") {
    if (static_cast<int64_t>(payload.size()) > def_.max_graphdef_bytes) {
      return ResourceExhausted(
          "GraphDef of " + std::to_string(payload.size()) +
          " bytes exceeds the " + std::to_string(def_.max_graphdef_bytes) +
          "-byte ProtoBuf limit; keep loop state in variables and ship only "
          "the loop body (paper §IV)");
    }
    TFHPC_ASSIGN_OR_RETURN(
        wire::GraphDef def,
        wire::GraphDef::Parse(payload.Contiguous(&flat_scratch)));
    std::lock_guard<std::mutex> lk(graph_mu_);
    for (const auto& node_def : def.nodes) {
      TFHPC_ASSIGN_OR_RETURN(Node * n, graph_.AddNode(node_def));
      (void)n;
    }
    return wire::PayloadRef();
  }

  if (method == "RegisterStep") {
    TFHPC_ASSIGN_OR_RETURN(wire::RegisterStepRequest req,
                           wire::RegisterStepRequest::Parse(
                               payload.Contiguous(&flat_scratch)));
    TFHPC_ASSIGN_OR_RETURN(std::shared_ptr<const Executable> exe,
                           PrepareLocked(req.feeds, req.fetches, req.targets));
    wire::RegisterStepResponse resp;
    resp.graph_version = exe->graph_version();
    {
      std::lock_guard<std::mutex> lk(steps_mu_);
      // FIFO eviction: drop the oldest handle; its client re-registers on
      // the resulting kNotFound.
      while (registered_steps_.size() >=
             std::max<size_t>(1, def_.max_registered_steps)) {
        registered_steps_.erase(registered_steps_.begin());
      }
      resp.handle = next_step_handle_++;
      registered_steps_.emplace(
          resp.handle, RegisteredStep{std::move(req.feeds),
                                      std::move(req.fetches),
                                      std::move(req.targets), std::move(exe)});
    }
    steps_registered_.fetch_add(1, std::memory_order_relaxed);
    return wire::PayloadRef(resp.Serialize());
  }

  if (method == "RunStep") {
    TFHPC_ASSIGN_OR_RETURN(RunStepRequest req, RunStepRequest::Parse(
                               payload.Contiguous(&flat_scratch)));
    // A step runs only by handle: its fetches and targets were fixed, and
    // compiled, at RegisterStep.
    if (req.step_handle == 0) {
      return InvalidArgument(
          "RunStep without a step handle; register the step first");
    }
    // The runtime has one execution mode; paper-scale timings come from the
    // DES (apps::Simulate*), not from a step.
    if (req.simulate) {
      return InvalidArgument("RunStep: simulated steps are not supported");
    }
    RunOptions options;
    options.cancellation = token;
    options.step_memory_limit_bytes = def_.step_memory_limit_bytes;
    RegisteredStep step;
    {
      std::lock_guard<std::mutex> lk(steps_mu_);
      auto it = registered_steps_.find(req.step_handle);
      if (it == registered_steps_.end()) {
        return NotFound("unknown step handle " +
                        std::to_string(req.step_handle) +
                        " (worker restarted or handle evicted); "
                        "re-register the step");
      }
      step = it->second;
    }
    std::shared_ptr<const Executable> exe = step.executable;
    if (exe->stale(graph_)) {
      // The graph was extended after this step compiled: recompile the
      // registered signature transparently and re-pin the handle.
      TFHPC_ASSIGN_OR_RETURN(
          exe, PrepareLocked(step.feeds, step.fetches, step.targets));
      std::lock_guard<std::mutex> lk(steps_mu_);
      auto it = registered_steps_.find(req.step_handle);
      if (it != registered_steps_.end()) it->second.executable = exe;
    }
    // Admission control: bounded in-flight steps with per-client fairness
    // AND a byte budget charged the memory planner's static peak (an upper
    // bound sound under concurrency; 0 for a step compiled without a plan).
    // Excess load sheds with kUnavailable + retry-after, a queued step
    // whose deadline fires while waiting leaves with kDeadlineExceeded, and
    // a step whose peak can never fit the budget is refused with permanent
    // kResourceExhausted. Admission sits after executable resolution so the
    // bound exists; compiling an unadmitted step is paid once per
    // signature, not per run.
    std::optional<ServingController::Slot> slot;
    if (serving_ != nullptr) {
      slot.emplace(serving_.get(), std::to_string(client_id), token,
                   exe->static_peak_bytes());
      TFHPC_RETURN_IF_ERROR(slot->status());
    }
    TFHPC_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                           session_->RunPrepared(*exe, req.feeds, options));
    return wire::PayloadRef(EncodeTensorList(outputs));
  }

  if (method == "Enqueue") {
    std::string queue;
    Tensor tensor;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        DecodeQueuePayloadView(payload, &queue, &tensor, &capacity));
    if (!tensor.valid()) return InvalidArgument("Enqueue without tensor");
    TFHPC_ASSIGN_OR_RETURN(FIFOQueue * q,
                           resources_.LookupOrCreateQueue(queue, capacity));
    TFHPC_RETURN_IF_ERROR(q->Enqueue(std::move(tensor), token));
    return wire::PayloadRef();
  }

  if (method == "Dequeue") {
    std::string queue;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        DecodeQueuePayloadView(payload, &queue, nullptr, &capacity));
    TFHPC_ASSIGN_OR_RETURN(FIFOQueue * q,
                           resources_.LookupOrCreateQueue(queue, capacity));
    TFHPC_ASSIGN_OR_RETURN(Tensor t, q->Dequeue(token));
    return wire::SerializeTensorView(t);
  }

  if (method == "CloseQueue") {
    std::string queue;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        DecodeQueuePayloadView(payload, &queue, nullptr, &capacity));
    TFHPC_ASSIGN_OR_RETURN(FIFOQueue * q,
                           resources_.LookupOrCreateQueue(queue, 0));
    q->Close();
    return wire::PayloadRef();
  }

  if (method == "VarWrite") {
    std::string var;
    Tensor tensor;
    bool accumulate, want_value;
    TFHPC_RETURN_IF_ERROR(
        DecodeVarPayloadView(payload, &var, &tensor, &accumulate,
                             &want_value));
    if (!tensor.valid()) return InvalidArgument("VarWrite without tensor");
    Variable* v = resources_.LookupOrCreateVariable(var);
    Tensor value;
    if (accumulate) {
      TFHPC_ASSIGN_OR_RETURN(value, v->Accumulate(tensor));
    } else {
      v->Write(tensor);
      value = tensor;
    }
    // The paper's STREAM explicitly avoids returning the value (it would
    // double the traffic); honour want_value.
    if (!want_value) return wire::PayloadRef();
    return wire::SerializeTensorView(value);
  }

  if (method == "AbortStep") {
    // Step cancellation: unblock every _Recv parked on this task (the
    // rendezvous stays poisoned until ResetStep) AND every thread blocked
    // in a queue Enqueue/Dequeue — including barrier waits parked inside
    // remote Dequeue handlers. Queues stay open: they are shared across
    // steps and tenants, so only the *waiters* fail, with kCancelled.
    const Status reason = Cancelled(
        "step aborted" +
        (payload.empty()
             ? ""
             : ": " + std::string(payload.Contiguous(&flat_scratch))));
    resources_.rendezvous().Abort(reason);
    resources_.CancelAllQueueWaiters(reason);
    return wire::PayloadRef();
  }

  if (method == "ResetStep") {
    resources_.rendezvous().Reset();
    return wire::PayloadRef();
  }

  if (method == "RendezvousSend") {
    std::string key;
    Tensor tensor;
    int64_t capacity;
    TFHPC_RETURN_IF_ERROR(
        DecodeQueuePayloadView(payload, &key, &tensor, &capacity));
    if (!tensor.valid()) return InvalidArgument("RendezvousSend without tensor");
    TFHPC_RETURN_IF_ERROR(resources_.rendezvous().Send(key, std::move(tensor)));
    return wire::PayloadRef();
  }

  if (method == "VarSnapshot") {
    return wire::PayloadRef(EncodeNamedTensors(resources_.VariableSnapshot()));
  }

  if (method == "VarRestore") {
    TFHPC_ASSIGN_OR_RETURN(auto vars, DecodeNamedTensors(payload.Contiguous(&flat_scratch)));
    resources_.RestoreVariables(vars);
    return wire::PayloadRef();
  }

  if (method == "VarRead") {
    std::string var;
    bool accumulate, want_value;
    TFHPC_RETURN_IF_ERROR(
        DecodeVarPayloadView(payload, &var, nullptr, &accumulate,
                             &want_value));
    Variable* v = resources_.LookupOrCreateVariable(var);
    TFHPC_ASSIGN_OR_RETURN(Tensor t, v->Read());
    return wire::SerializeTensorView(t);
  }

  return Unimplemented("unknown method '" + method + "'");
}

}  // namespace tfhpc::distrib
