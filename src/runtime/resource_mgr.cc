#include "runtime/resource_mgr.h"

#include <complex>

#include "core/threadpool.h"

namespace tfhpc {
namespace {

// out = a + b elementwise; all three share one dtype and shape, and out may
// be a itself. A bulk pass: every chunk boundary falls between two elements.
template <typename T>
void AddInto(const Tensor& a, const Tensor& b, Tensor* out) {
  static_assert(kBulkChunkBytes % sizeof(T) == 0);
  const T* x = a.data<T>().data();
  const T* y = b.data<T>().data();
  T* z = out->mutable_data<T>();
  ForEachBulkChunk(static_cast<size_t>(out->bytes()),
                   [x, y, z](size_t begin, size_t end) {
                     for (size_t i = begin / sizeof(T); i < end / sizeof(T);
                          ++i) {
                       z[i] = x[i] + y[i];
                     }
                   });
}

}  // namespace

Status FIFOQueue::Enqueue(Tensor t, CancellationToken* token) {
  CancelCallback wake(token, [this] {
    // Wake both CVs: the token's step may have waiters on either side.
    not_full_.notify_all();
    not_empty_.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu_);
  const uint64_t entry_epoch = cancel_epoch_;
  auto ready = [&] {
    if (closed_ || cancel_epoch_ != entry_epoch) return true;
    if (token != nullptr && !token->Check().ok()) return true;
    return capacity_ == 0 || items_.size() < static_cast<size_t>(capacity_);
  };
  if (token != nullptr && token->has_deadline()) {
    if (!not_full_.wait_until(lk, token->deadline(), ready)) {
      return DeadlineExceeded("enqueue wait on queue '" + name_ +
                              "' exceeded step deadline");
    }
  } else {
    not_full_.wait(lk, ready);
  }
  if (closed_) return Cancelled("enqueue on closed queue '" + name_ + "'");
  if (cancel_epoch_ != entry_epoch) return cancel_status_;
  if (token != nullptr) {
    Status ts = token->Check();
    if (!ts.ok()) return ts;
  }
  items_.push_back(std::move(t));
  lk.unlock();
  not_empty_.notify_one();
  return Status::OK();
}

Result<Tensor> FIFOQueue::Dequeue(CancellationToken* token) {
  CancelCallback wake(token, [this] {
    not_full_.notify_all();
    not_empty_.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu_);
  const uint64_t entry_epoch = cancel_epoch_;
  auto ready = [&] {
    if (closed_ || cancel_epoch_ != entry_epoch) return true;
    if (token != nullptr && !token->Check().ok()) return true;
    return !items_.empty();
  };
  if (token != nullptr && token->has_deadline()) {
    if (!not_empty_.wait_until(lk, token->deadline(), ready)) {
      return DeadlineExceeded("dequeue wait on queue '" + name_ +
                              "' exceeded step deadline");
    }
  } else {
    not_empty_.wait(lk, ready);
  }
  // Closed queues drain before failing (TF's contract); cancellation does
  // not consume an element even if one raced in.
  if (!items_.empty() && cancel_epoch_ == entry_epoch &&
      (token == nullptr || token->Check().ok())) {
    Tensor t = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return t;
  }
  if (closed_ && items_.empty() && cancel_epoch_ == entry_epoch) {
    return OutOfRange("queue '" + name_ + "' is closed and empty");
  }
  if (cancel_epoch_ != entry_epoch) return cancel_status_;
  if (token != nullptr) {
    Status ts = token->Check();
    if (!ts.ok()) return ts;
  }
  // Closed while we waited, with elements drained by other consumers.
  return OutOfRange("queue '" + name_ + "' is closed and empty");
}

Status FIFOQueue::TryEnqueue(Tensor t, bool* accepted) {
  std::unique_lock<std::mutex> lk(mu_);
  if (closed_) return Cancelled("enqueue on closed queue '" + name_ + "'");
  if (capacity_ != 0 && items_.size() >= static_cast<size_t>(capacity_)) {
    *accepted = false;
    return Status::OK();
  }
  items_.push_back(std::move(t));
  *accepted = true;
  lk.unlock();
  not_empty_.notify_one();
  return Status::OK();
}

Result<Tensor> FIFOQueue::TryDequeue(bool* got) {
  std::unique_lock<std::mutex> lk(mu_);
  if (items_.empty()) {
    *got = false;
    if (closed_) return OutOfRange("queue '" + name_ + "' is closed and empty");
    return Tensor();
  }
  Tensor t = std::move(items_.front());
  items_.pop_front();
  *got = true;
  lk.unlock();
  not_full_.notify_one();
  return t;
}

void FIFOQueue::Close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

void FIFOQueue::CancelWaiters(Status status) {
  TFHPC_CHECK(!status.ok()) << "CancelWaiters needs an error status";
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++cancel_epoch_;
    cancel_status_ = std::move(status);
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool FIFOQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

size_t FIFOQueue::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return items_.size();
}

bool Variable::initialized() const {
  std::lock_guard<std::mutex> lk(mu_);
  return value_.valid();
}

Result<Tensor> Variable::Read() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (!value_.valid()) {
    return FailedPrecondition("variable '" + name_ + "' is uninitialized");
  }
  return value_;
}

void Variable::Write(Tensor t) {
  std::lock_guard<std::mutex> lk(mu_);
  value_ = std::move(t);
  owns_buffer_ = false;
}

Result<Tensor> Variable::Accumulate(const Tensor& delta) {
  if (!delta.valid()) {
    return InvalidArgument("variable '" + name_ +
                           "' accumulate of an invalid tensor");
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!value_.valid()) {
    value_ = delta.Clone();
    owns_buffer_ = true;
    return value_;
  }
  if (value_.dtype() != delta.dtype() || value_.shape() != delta.shape()) {
    return InvalidArgument("variable '" + name_ + "' accumulate mismatch: " +
                           value_.shape().ToString() + " vs " +
                           delta.shape().ToString());
  }
  // value + delta in one bulk pass (pooled from two chunks up). In place
  // only when no reader can see it: the buffer is the variable's own (a
  // written tensor's writer may still hold it, or it may be a view of a step
  // arena) and no one else holds it. Readers hold shallow snapshots, so a
  // shared buffer keeps its bits and the sum goes to a fresh one charged to
  // the value's allocator. The count is read from a copy of the pointer:
  // the copy's increment is an acquire, so a reader that just dropped its
  // snapshot is done with the bytes before they are written, where a bare
  // use_count() is a relaxed load.
  Tensor next;
  if (owns_buffer_) {
    const std::shared_ptr<Buffer> held = value_.buffer();
    if (held.use_count() == 2) next = value_;
  }
  if (!next.valid()) {
    next = Tensor::Uninitialized(value_.dtype(), value_.shape(),
                                 value_.buffer()->stats());
  }
  switch (next.dtype()) {
    case DType::kF32: AddInto<float>(value_, delta, &next); break;
    case DType::kF64: AddInto<double>(value_, delta, &next); break;
    case DType::kC128:
      AddInto<std::complex<double>>(value_, delta, &next);
      break;
    case DType::kI64: AddInto<int64_t>(value_, delta, &next); break;
    default:
      return Unimplemented("Accumulate for dtype " +
                           std::string(DTypeName(next.dtype())));
  }
  value_ = std::move(next);
  owns_buffer_ = true;
  return value_;
}

Result<FIFOQueue*> ResourceMgr::LookupOrCreateQueue(const std::string& name,
                                                    int64_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = queues_.find(name);
  if (it != queues_.end()) {
    if (capacity != 0 && it->second->capacity() != 0 &&
        it->second->capacity() != capacity) {
      return InvalidArgument("queue '" + name + "' exists with capacity " +
                             std::to_string(it->second->capacity()) +
                             ", requested " + std::to_string(capacity));
    }
    return it->second.get();
  }
  auto q = std::make_unique<FIFOQueue>(name, capacity);
  FIFOQueue* raw = q.get();
  queues_.emplace(name, std::move(q));
  return raw;
}

Variable* ResourceMgr::LookupOrCreateVariable(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = variables_.find(name);
  if (it != variables_.end()) return it->second.get();
  auto v = std::make_unique<Variable>(name);
  Variable* raw = v.get();
  variables_.emplace(name, std::move(v));
  return raw;
}

std::map<std::string, Tensor> ResourceMgr::VariableSnapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, Tensor> snap;
  for (const auto& [name, var] : variables_) {
    if (var->initialized()) {
      auto r = var->Read();
      if (r.ok()) snap.emplace(name, *r);
    }
  }
  return snap;
}

void ResourceMgr::RestoreVariables(const std::map<std::string, Tensor>& vars) {
  for (const auto& [name, tensor] : vars) {
    LookupOrCreateVariable(name)->Write(tensor);
  }
}

void ResourceMgr::CloseAllQueues() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, q] : queues_) q->Close();
}

void ResourceMgr::CancelAllQueueWaiters(Status status) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, q] : queues_) q->CancelWaiters(status);
}

}  // namespace tfhpc
