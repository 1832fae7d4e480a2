// Source and plumbing kernels: Const, Placeholder, RandomUniform, Identity,
// NoOp.
#include "core/rng.h"
#include "kernels/kernel.h"

namespace tfhpc {
namespace {

class ConstKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    TFHPC_ASSIGN_OR_RETURN(std::string bytes, ctx->node().AttrString("value"));
    TFHPC_ASSIGN_OR_RETURN(Tensor value, wire::ParseTensor(bytes));
    ctx->set_output(0, std::move(value));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Const", ConstKernel);

class PlaceholderKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    // Executed only when the client failed to feed it (feeds short-circuit
    // placeholder nodes in the executor).
    return InvalidArgument("placeholder '" + ctx->node().name() +
                           "' was not fed");
  }
};
TFHPC_REGISTER_KERNEL_ALL("Placeholder", PlaceholderKernel);

class RandomUniformKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    TFHPC_ASSIGN_OR_RETURN(DType dtype, ctx->node().AttrType("dtype"));
    TFHPC_ASSIGN_OR_RETURN(Shape shape, ctx->node().AttrShape("shape"));
    TFHPC_ASSIGN_OR_RETURN(int64_t seed, ctx->node().AttrInt("seed"));
    TFHPC_ASSIGN_OR_RETURN(double lo, ctx->node().AttrFloat("lo"));
    TFHPC_ASSIGN_OR_RETURN(double hi, ctx->node().AttrFloat("hi"));
    if (dtype != DType::kF32 && dtype != DType::kF64 &&
        dtype != DType::kC128) {
      return InvalidArgument("RandomUniform fills f32, f64 or c128, not " +
                             std::string(DTypeName(dtype)));
    }
    Tensor out;
    TFHPC_RETURN_IF_ERROR(ctx->AllocateOutput(dtype, std::move(shape), &out));
    FillUniform(out, static_cast<uint64_t>(seed), lo, hi);
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c;
    auto dtype = ctx.node().AttrType("dtype");
    auto shape = ctx.node().AttrShape("shape");
    if (dtype.ok() && shape.ok()) {
      c.bytes_written = shape->num_elements() *
                        static_cast<int64_t>(DTypeSize(*dtype));
      c.flops = static_cast<double>(shape->num_elements());
    }
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("RandomUniform", RandomUniformKernel);

class IdentityKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    ctx->set_output(0, ctx->input(0));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Identity", IdentityKernel);

class NoOpKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext*) override { return Status::OK(); }
};
TFHPC_REGISTER_KERNEL_ALL("NoOp", NoOpKernel);

}  // namespace
}  // namespace tfhpc
