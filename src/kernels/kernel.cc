#include "kernels/kernel.h"

namespace tfhpc {

CostEstimate OpKernel::Cost(const OpKernelContext& ctx) const {
  CostEstimate c;
  for (int i = 0; i < ctx.num_inputs(); ++i) {
    c.bytes_read += ctx.input(i).bytes();
  }
  return c;
}

KernelRegistry& KernelRegistry::Global() {
  static KernelRegistry* registry = new KernelRegistry();
  return *registry;
}

Status KernelRegistry::Register(const std::string& op,
                                const std::string& device_type,
                                Factory factory) {
  const std::string key = op + "|" + device_type;
  auto [it, inserted] = factories_.emplace(key, std::move(factory));
  (void)it;
  if (!inserted) return AlreadyExists("kernel already registered: " + key);
  return Status::OK();
}

bool KernelRegistry::HasKernel(const std::string& op,
                               const std::string& device_type) const {
  return factories_.count(op + "|" + device_type) > 0;
}

Result<std::unique_ptr<OpKernel>> KernelRegistry::Create(
    const std::string& op, const std::string& device_type) const {
  auto it = factories_.find(op + "|" + device_type);
  if (it == factories_.end()) {
    return NotFound("no kernel for op '" + op + "' on device type '" +
                    device_type + "'");
  }
  return it->second();
}

namespace internal {
KernelRegistrar::KernelRegistrar(const std::string& op,
                                 const std::string& device_type,
                                 KernelRegistry::Factory factory) {
  const Status s =
      KernelRegistry::Global().Register(op, device_type, std::move(factory));
  TFHPC_CHECK(s.ok()) << s.ToString();
}
}  // namespace internal

}  // namespace tfhpc
