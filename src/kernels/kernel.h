// Op kernels: per-(op, device-type) compute implementations, the analogue of
// TensorFlow's kernel layer. A kernel receives an OpKernelContext holding
// input tensors and produces output tensors. Every input has storage, so a
// kernel has one path: validate shapes, allocate, compute. Cost() reports
// nominal work for trace records and device capacity checks; the figures'
// paper-scale timings come from the DES (src/sim), not from kernels.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "graph/graph.h"
#include "runtime/resource_mgr.h"

namespace tfhpc {

struct CostEstimate {
  double flops = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
};

class OpKernelContext {
 public:
  OpKernelContext(const Node* node, std::vector<Tensor> inputs,
                  ResourceMgr* resources, AllocatorStats* alloc_stats = nullptr)
      : node_(node),
        inputs_(std::move(inputs)),
        resources_(resources),
        alloc_stats_(alloc_stats) {
    outputs_.resize(static_cast<size_t>(node->op_def().num_outputs));
  }

  const Node& node() const { return *node_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  const Tensor& input(int i) const {
    TFHPC_CHECK_LT(i, num_inputs());
    return inputs_[static_cast<size_t>(i)];
  }

  void set_output(int i, Tensor t) {
    TFHPC_CHECK_LT(i, static_cast<int>(outputs_.size()));
    outputs_[static_cast<size_t>(i)] = std::move(t);
  }
  std::vector<Tensor>& outputs() { return outputs_; }

  ResourceMgr* resources() const { return resources_; }

  // Step cancellation token; null when the step carries none. Blocking
  // kernels (_Recv, queue ops) pass it into their waits so a cancelled or
  // expired step releases the parked thread instead of hanging it.
  CancellationToken* cancellation() const { return cancellation_; }
  void set_cancellation(CancellationToken* token) { cancellation_ = token; }

  // Attaches this node's memory-planned output: a view into the step arena
  // (analysis/memory_plan.h). AllocateOutput(ZeroInit::kNo) hands it out
  // when the requested dtype/shape match, skipping the allocation entirely.
  void set_planned_output(Tensor view) { planned_output_ = std::move(view); }

  // Per-step memory budget the executor armed for this step; null when the
  // step is unbudgeted. Every output allocation is charged against it.
  const std::shared_ptr<MemoryLimiter>& step_limiter() const {
    return step_limiter_;
  }
  void set_step_limiter(std::shared_ptr<MemoryLimiter> limiter) {
    step_limiter_ = std::move(limiter);
  }

  // Allocates an output tensor into `*out`: the planned arena view when one
  // matches, else a buffer from the executing device's pooled allocator.
  // Kernels that overwrite every element pass ZeroInit::kNo to skip the
  // memset (the pool and the arena hand back dirty bytes). Fails with
  // kResourceExhausted under memory pressure (budget breach, injected fault,
  // real OOM) — kernels propagate the status and the executor unwinds the
  // step.
  Status AllocateOutput(DType dtype, Shape shape, Tensor* out,
                        ZeroInit zero = ZeroInit::kYes) const {
    if (zero == ZeroInit::kNo && planned_output_.valid() &&
        planned_output_.dtype() == dtype && planned_output_.shape() == shape) {
      *out = std::exchange(planned_output_, Tensor());
      return Status::OK();
    }
    TFHPC_ASSIGN_OR_RETURN(
        *out, Tensor::TryCreate(dtype, std::move(shape), alloc_stats_, zero,
                                step_limiter_));
    return Status::OK();
  }

 private:
  const Node* node_;
  std::vector<Tensor> inputs_;
  std::vector<Tensor> outputs_;
  // The arena view set by the executor, until AllocateOutput hands it out;
  // mutable so the const allocation helper can consume it.
  mutable Tensor planned_output_;
  ResourceMgr* resources_;
  AllocatorStats* alloc_stats_;
  CancellationToken* cancellation_ = nullptr;
  std::shared_ptr<MemoryLimiter> step_limiter_;
};

class OpKernel {
 public:
  virtual ~OpKernel() = default;
  virtual Status Compute(OpKernelContext* ctx) = 0;
  // Nominal work for the cost model; called with inputs bound. Default:
  // pure data movement (bytes in + out, no flops).
  virtual CostEstimate Cost(const OpKernelContext& ctx) const;
};

// Registry keyed by (op name, device type "cpu"/"gpu").
class KernelRegistry {
 public:
  using Factory = std::function<std::unique_ptr<OpKernel>()>;

  static KernelRegistry& Global();

  Status Register(const std::string& op, const std::string& device_type,
                  Factory factory);
  bool HasKernel(const std::string& op, const std::string& device_type) const;
  Result<std::unique_ptr<OpKernel>> Create(const std::string& op,
                                           const std::string& device_type) const;

 private:
  std::map<std::string, Factory> factories_;  // key: op + "|" + device_type
};

namespace internal {
struct KernelRegistrar {
  KernelRegistrar(const std::string& op, const std::string& device_type,
                  KernelRegistry::Factory factory);
};
}  // namespace internal

// Registers KernelClass for op on one device type; use twice for both.
#define TFHPC_REGISTER_KERNEL(op, device_type, KernelClass)          \
  static ::tfhpc::internal::KernelRegistrar TFHPC_CONCAT_(           \
      kernel_registrar_, __COUNTER__)(op, device_type, [] {          \
    return std::unique_ptr<::tfhpc::OpKernel>(new KernelClass());    \
  })

// Most tfhpc kernels run on cpu and (simulated) gpu identically.
#define TFHPC_REGISTER_KERNEL_ALL(op, KernelClass) \
  TFHPC_REGISTER_KERNEL(op, "cpu", KernelClass);   \
  TFHPC_REGISTER_KERNEL(op, "gpu", KernelClass)

}  // namespace tfhpc
