// Elementwise, reduction and linear-algebra kernels (cpu + simulated gpu).
#include <cmath>
#include <complex>

#include "core/threadpool.h"
#include "kernels/fft_impl.h"
#include "kernels/gemm.h"
#include "kernels/kernel.h"
#include "kernels/reduction.h"

namespace tfhpc {
namespace {

// ---- elementwise binary ops with scalar broadcast ----------------------------

enum class BinOp { kAdd, kSub, kMul, kDiv };

template <typename T>
void ApplyBin(BinOp op, const T* a, const T* b, T* out, int64_t n,
              bool a_scalar, bool b_scalar) {
  ThreadPool::Global().ParallelFor(n, 8192, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const T x = a[a_scalar ? 0 : i];
      const T y = b[b_scalar ? 0 : i];
      switch (op) {
        case BinOp::kAdd: out[i] = x + y; break;
        case BinOp::kSub: out[i] = x - y; break;
        case BinOp::kMul: out[i] = x * y; break;
        case BinOp::kDiv: out[i] = x / y; break;
      }
    }
  });
}

class BinaryKernel : public OpKernel {
 public:
  explicit BinaryKernel(BinOp op) : op_(op) {}

  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    const Tensor& b = ctx->input(1);
    if (a.dtype() != b.dtype()) {
      return InvalidArgument("binary op dtype mismatch: " +
                             std::string(DTypeName(a.dtype())) + " vs " +
                             DTypeName(b.dtype()));
    }
    const bool a_scalar = a.shape().IsScalar();
    const bool b_scalar = b.shape().IsScalar();
    if (!a_scalar && !b_scalar && a.shape() != b.shape()) {
      return InvalidArgument("binary op shape mismatch: " +
                             a.shape().ToString() + " vs " +
                             b.shape().ToString());
    }
    const Shape& out_shape = a_scalar ? b.shape() : a.shape();
    // The memory plan may place out over a dying operand; ApplyBin reads
    // index i before writing index i, so that in-place alias is safe.
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), out_shape, &out, ZeroInit::kNo));
    const int64_t n = out.num_elements();
    switch (a.dtype()) {
      case DType::kF32:
        ApplyBin(op_, a.data<float>().data(), b.data<float>().data(),
                 out.mutable_data<float>(), n, a_scalar, b_scalar);
        break;
      case DType::kF64:
        ApplyBin(op_, a.data<double>().data(), b.data<double>().data(),
                 out.mutable_data<double>(), n, a_scalar, b_scalar);
        break;
      case DType::kC128:
        ApplyBin(op_, a.data<std::complex<double>>().data(),
                 b.data<std::complex<double>>().data(),
                 out.mutable_data<std::complex<double>>(), n, a_scalar,
                 b_scalar);
        break;
      case DType::kI64:
        ApplyBin(op_, a.data<int64_t>().data(), b.data<int64_t>().data(),
                 out.mutable_data<int64_t>(), n, a_scalar, b_scalar);
        break;
      default:
        return Unimplemented("binary op for dtype " +
                             std::string(DTypeName(a.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    const Shape& s = ctx.input(0).shape().IsScalar() ? ctx.input(1).shape()
                                                     : ctx.input(0).shape();
    c.flops = static_cast<double>(s.num_elements());
    c.bytes_written = s.num_elements() *
                      static_cast<int64_t>(DTypeSize(ctx.input(0).dtype()));
    return c;
  }

 private:
  BinOp op_;
};

class AddKernel : public BinaryKernel {
 public:
  AddKernel() : BinaryKernel(BinOp::kAdd) {}
};
class SubKernel : public BinaryKernel {
 public:
  SubKernel() : BinaryKernel(BinOp::kSub) {}
};
class MulKernel : public BinaryKernel {
 public:
  MulKernel() : BinaryKernel(BinOp::kMul) {}
};
class DivKernel : public BinaryKernel {
 public:
  DivKernel() : BinaryKernel(BinOp::kDiv) {}
};

TFHPC_REGISTER_KERNEL_ALL("Add", AddKernel);
TFHPC_REGISTER_KERNEL_ALL("Sub", SubKernel);
TFHPC_REGISTER_KERNEL_ALL("Mul", MulKernel);
TFHPC_REGISTER_KERNEL_ALL("Div", DivKernel);

// ---- Sqrt ------------------------------------------------------------------

class SqrtKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), a.shape(), &out, ZeroInit::kNo));
    const int64_t n = a.num_elements();
    if (a.dtype() == DType::kF64) {
      const auto s = a.data<double>();
      auto* d = out.mutable_data<double>();
      for (int64_t i = 0; i < n; ++i) d[i] = std::sqrt(s[static_cast<size_t>(i)]);
    } else if (a.dtype() == DType::kF32) {
      const auto s = a.data<float>();
      auto* d = out.mutable_data<float>();
      for (int64_t i = 0; i < n; ++i) d[i] = std::sqrt(s[static_cast<size_t>(i)]);
    } else {
      return Unimplemented("Sqrt for dtype " +
                           std::string(DTypeName(a.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Sqrt", SqrtKernel);

// ---- Dot / ReduceSum -----------------------------------------------------------

class DotKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    const Tensor& b = ctx->input(1);
    if (!a.shape().IsVector() || a.shape() != b.shape() ||
        a.dtype() != b.dtype()) {
      return InvalidArgument("Dot requires two equal-length vectors, got " +
                             a.shape().ToString() + " and " +
                             b.shape().ToString());
    }
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), Shape{}, &out, ZeroInit::kNo));
    const int64_t n = a.num_elements();
    if (a.dtype() == DType::kF64) {
      *out.mutable_data<double>() =
          blas::ParallelDot(a.data<double>().data(), b.data<double>().data(), n);
    } else if (a.dtype() == DType::kF32) {
      *out.mutable_data<float>() = static_cast<float>(
          blas::ParallelDot(a.data<float>().data(), b.data<float>().data(), n));
    } else {
      return Unimplemented("Dot for dtype " +
                           std::string(DTypeName(a.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    c.flops = 2.0 * static_cast<double>(ctx.input(0).num_elements());
    c.bytes_written = static_cast<int64_t>(DTypeSize(ctx.input(0).dtype()));
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("Dot", DotKernel);

class ReduceSumKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), Shape{}, &out, ZeroInit::kNo));
    const int64_t n = a.num_elements();
    if (a.dtype() == DType::kF64) {
      *out.mutable_data<double>() =
          blas::ParallelSum(a.data<double>().data(), n);
    } else if (a.dtype() == DType::kF32) {
      *out.mutable_data<float>() =
          static_cast<float>(blas::ParallelSum(a.data<float>().data(), n));
    } else if (a.dtype() == DType::kC128) {
      *out.mutable_data<std::complex<double>>() =
          blas::ParallelSum(a.data<std::complex<double>>().data(), n);
    } else {
      return Unimplemented("ReduceSum for dtype " +
                           std::string(DTypeName(a.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    c.flops = static_cast<double>(ctx.input(0).num_elements());
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("ReduceSum", ReduceSumKernel);

// ---- Axpy: out = alpha * x + y -----------------------------------------------

class AxpyKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& alpha = ctx->input(0);
    const Tensor& x = ctx->input(1);
    const Tensor& y = ctx->input(2);
    if (!alpha.shape().IsScalar()) {
      return InvalidArgument("Axpy alpha must be scalar");
    }
    if (x.shape() != y.shape() || x.dtype() != y.dtype() ||
        alpha.dtype() != x.dtype()) {
      return InvalidArgument("Axpy operand mismatch");
    }
    // d[i] depends only on xs[i]/ys[i], so the memory plan may alias out
    // with either vector operand.
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(x.dtype(), x.shape(), &out, ZeroInit::kNo));
    const int64_t n = x.num_elements();
    if (x.dtype() == DType::kF64) {
      const double av = alpha.scalar<double>();
      const auto xs = x.data<double>();
      const auto ys = y.data<double>();
      auto* d = out.mutable_data<double>();
      ThreadPool::Global().ParallelFor(n, 8192, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
          d[i] = av * xs[static_cast<size_t>(i)] + ys[static_cast<size_t>(i)];
      });
    } else if (x.dtype() == DType::kF32) {
      const float av = alpha.scalar<float>();
      const auto xs = x.data<float>();
      const auto ys = y.data<float>();
      auto* d = out.mutable_data<float>();
      ThreadPool::Global().ParallelFor(n, 8192, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
          d[i] = av * xs[static_cast<size_t>(i)] + ys[static_cast<size_t>(i)];
      });
    } else {
      return Unimplemented("Axpy for dtype " +
                           std::string(DTypeName(x.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    c.flops = 2.0 * static_cast<double>(ctx.input(1).num_elements());
    c.bytes_written = ctx.input(1).bytes();
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("Axpy", AxpyKernel);

// ---- MatMul / MatVec ------------------------------------------------------------

class MatMulKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    const Tensor& b = ctx->input(1);
    if (!a.shape().IsMatrix() || !b.shape().IsMatrix()) {
      return InvalidArgument("MatMul requires rank-2 operands, got " +
                             a.shape().ToString() + " and " +
                             b.shape().ToString());
    }
    if (a.shape().dim(1) != b.shape().dim(0)) {
      return InvalidArgument("MatMul inner dims differ: " +
                             a.shape().ToString() + " x " +
                             b.shape().ToString());
    }
    if (a.dtype() != b.dtype()) return InvalidArgument("MatMul dtype mismatch");
    const int64_t m = a.shape().dim(0);
    const int64_t k = a.shape().dim(1);
    const int64_t n = b.shape().dim(1);
    // Gemm(beta_zero) clears C before accumulating — skip the redundant
    // allocator memset.
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), Shape{m, n}, &out, ZeroInit::kNo));
    if (a.dtype() == DType::kF32) {
      blas::Gemm(a.data<float>().data(), b.data<float>().data(),
                 out.mutable_data<float>(), m, n, k);
    } else if (a.dtype() == DType::kF64) {
      blas::Gemm(a.data<double>().data(), b.data<double>().data(),
                 out.mutable_data<double>(), m, n, k);
    } else {
      return Unimplemented("MatMul for dtype " +
                           std::string(DTypeName(a.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    const Shape& a = ctx.input(0).shape();
    const Shape& b = ctx.input(1).shape();
    if (a.IsMatrix() && b.IsMatrix()) {
      c.flops = 2.0 * static_cast<double>(a.dim(0)) *
                static_cast<double>(a.dim(1)) * static_cast<double>(b.dim(1));
      c.bytes_written = a.dim(0) * b.dim(1) *
                        static_cast<int64_t>(DTypeSize(ctx.input(0).dtype()));
    }
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("MatMul", MatMulKernel);

class MatVecKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& m = ctx->input(0);
    const Tensor& v = ctx->input(1);
    if (!m.shape().IsMatrix() || !v.shape().IsVector() ||
        m.shape().dim(1) != v.shape().dim(0)) {
      return InvalidArgument("MatVec shape mismatch: " + m.shape().ToString() +
                             " x " + v.shape().ToString());
    }
    if (m.dtype() != v.dtype()) return InvalidArgument("MatVec dtype mismatch");
    Tensor out;
    TFHPC_RETURN_IF_ERROR(ctx->AllocateOutput(m.dtype(), Shape{m.shape().dim(0)},
                                              &out, ZeroInit::kNo));
    if (m.dtype() == DType::kF64) {
      blas::Gemv(m.data<double>().data(), v.data<double>().data(),
                 out.mutable_data<double>(), m.shape().dim(0),
                 m.shape().dim(1));
    } else if (m.dtype() == DType::kF32) {
      blas::Gemv(m.data<float>().data(), v.data<float>().data(),
                 out.mutable_data<float>(), m.shape().dim(0),
                 m.shape().dim(1));
    } else {
      return Unimplemented("MatVec for dtype " +
                           std::string(DTypeName(m.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    const Shape& m = ctx.input(0).shape();
    if (m.IsMatrix()) {
      c.flops = 2.0 * static_cast<double>(m.dim(0)) *
                static_cast<double>(m.dim(1));
      c.bytes_written =
          m.dim(0) * static_cast<int64_t>(DTypeSize(ctx.input(0).dtype()));
    }
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("MatVec", MatVecKernel);

// ---- FFT ----------------------------------------------------------------------

class FftKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& x = ctx->input(0);
    if (!x.shape().IsVector() || x.dtype() != DType::kC128) {
      return InvalidArgument("FFT requires a complex128 vector, got " +
                             std::string(DTypeName(x.dtype())) + " " +
                             x.shape().ToString());
    }
    TFHPC_ASSIGN_OR_RETURN(bool inverse, ctx->node().AttrBool("inverse"));
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(DType::kC128, x.shape(), &out, ZeroInit::kNo));
    const auto src = x.data<std::complex<double>>();
    std::vector<std::complex<double>> buf(src.begin(), src.end());
    fft::Transform(buf, inverse);
    std::memcpy(out.raw_data(), buf.data(),
                buf.size() * sizeof(std::complex<double>));
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    const double n = static_cast<double>(ctx.input(0).num_elements());
    if (n > 1) c.flops = 5.0 * n * std::log2(n);  // the paper's flop estimate
    c.bytes_written = ctx.input(0).bytes();
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("FFT", FftKernel);

}  // namespace
}  // namespace tfhpc
