#include "runtime/eager.h"

#include "graph/graph.h"
#include "kernels/kernel.h"

namespace tfhpc::eager {

EagerContext::EagerContext(int num_gpus, ComputeModel gpu_model)
    : devices_(DeviceMgr::CreateLocal("eager", 0, num_gpus,
                                      std::move(gpu_model))) {}

Result<std::vector<Tensor>> EagerContext::Execute(
    const std::string& op, std::vector<Tensor> inputs,
    std::map<std::string, wire::AttrValue> attrs,
    const std::string& device_spec) {
  const OpDef* op_def = OpRegistry::Global().Lookup(op);
  if (op_def == nullptr) return NotFound("op '" + op + "' not registered");
  TFHPC_RETURN_IF_ERROR(
      CheckArity(*op_def, "<eager:" + op + ">",
                 static_cast<int>(inputs.size())));

  // Placement: explicit spec wins; otherwise GPU when a gpu kernel exists.
  TFHPC_ASSIGN_OR_RETURN(DeviceName requested, DeviceName::Parse(device_spec));
  auto& registry = KernelRegistry::Global();
  Device* device = nullptr;
  if (!requested.type.empty()) {
    device = devices_->Find(requested);
    if (device == nullptr || !registry.HasKernel(op, device->type())) {
      return NotFound("no device/kernel for '" + op + "' on '" + device_spec +
                      "'");
    }
  } else {
    DeviceName gpu;
    gpu.type = "gpu";
    if (registry.HasKernel(op, "gpu") && devices_->Find(gpu) != nullptr) {
      device = devices_->Find(gpu);
    } else {
      DeviceName cpu;
      cpu.type = "cpu";
      device = devices_->Find(cpu);
      if (device == nullptr || !registry.HasKernel(op, "cpu")) {
        return NotFound("no kernel for op '" + op + "'");
      }
    }
  }

  wire::NodeDef def;
  def.name = "eager/" + op;
  def.op = op;
  def.attrs = std::move(attrs);
  TFHPC_ASSIGN_OR_RETURN(std::unique_ptr<Node> node,
                         Node::Detached(std::move(def)));
  TFHPC_ASSIGN_OR_RETURN(std::unique_ptr<OpKernel> kernel,
                         registry.Create(op, device->type()));

  OpKernelContext kctx(node.get(), std::move(inputs), &resources_,
                       device->allocator_stats());
  TFHPC_RETURN_IF_ERROR(kernel->Compute(&kctx));
  return std::move(kctx.outputs());
}

Result<Tensor> EagerContext::Execute1(
    const std::string& op, std::vector<Tensor> inputs,
    std::map<std::string, wire::AttrValue> attrs,
    const std::string& device_spec) {
  TFHPC_ASSIGN_OR_RETURN(
      std::vector<Tensor> outs,
      Execute(op, std::move(inputs), std::move(attrs), device_spec));
  if (outs.empty() || !outs[0].valid()) {
    return Internal("op '" + op + "' produced no output");
  }
  return std::move(outs[0]);
}

Result<Tensor> MatMul(EagerContext& ctx, const Tensor& a, const Tensor& b) {
  return ctx.Execute1("MatMul", {a, b});
}
Result<Tensor> Add(EagerContext& ctx, const Tensor& a, const Tensor& b) {
  return ctx.Execute1("Add", {a, b});
}
Result<Tensor> Sub(EagerContext& ctx, const Tensor& a, const Tensor& b) {
  return ctx.Execute1("Sub", {a, b});
}
Result<Tensor> Mul(EagerContext& ctx, const Tensor& a, const Tensor& b) {
  return ctx.Execute1("Mul", {a, b});
}
Result<Tensor> Dot(EagerContext& ctx, const Tensor& a, const Tensor& b) {
  return ctx.Execute1("Dot", {a, b});
}
Result<Tensor> Fft(EagerContext& ctx, const Tensor& x, bool inverse) {
  return ctx.Execute1("FFT", {x},
                      {{"inverse", wire::AttrValue::Bool(inverse)}});
}
Result<Tensor> Transpose(EagerContext& ctx, const Tensor& a) {
  return ctx.Execute1("Transpose", {a});
}
Result<Tensor> ReduceSum(EagerContext& ctx, const Tensor& a) {
  return ctx.Execute1("ReduceSum", {a});
}

}  // namespace tfhpc::eager
