// Array-manipulation kernels: Transpose, Slice, Concat, Cast, Neg, Reshape,
// Fill, ZerosLike — the data-layout vocabulary the paper's pre-processing
// steps (tiling, splitting, merging) are written in when expressed in-graph.
#include <cstring>

#include "core/threadpool.h"
#include "kernels/kernel.h"

namespace tfhpc {
namespace {

// ---- Transpose (rank 2) -------------------------------------------------------

class TransposeKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    if (!a.shape().IsMatrix()) {
      return InvalidArgument("Transpose requires rank 2, got " +
                             a.shape().ToString());
    }
    const int64_t r = a.shape().dim(0);
    const int64_t c = a.shape().dim(1);
    // Every destination element is written. Never aliased with the input
    // (the memory plan keeps Transpose out of place): the blocked transpose
    // would read elements it already overwrote.
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), Shape{c, r}, &out, ZeroInit::kNo));
    const size_t esize = DTypeSize(a.dtype());
    const auto* src = static_cast<const uint8_t*>(a.raw_data());
    auto* dst = static_cast<uint8_t*>(out.raw_data());
    // Blocked transpose for cache behaviour.
    constexpr int64_t kBlock = 32;
    ThreadPool::Global().ParallelFor(
        (r + kBlock - 1) / kBlock, 1, [&](int64_t bb, int64_t be) {
          for (int64_t b = bb; b < be; ++b) {
            const int64_t i0 = b * kBlock;
            const int64_t i1 = std::min(r, i0 + kBlock);
            for (int64_t j0 = 0; j0 < c; j0 += kBlock) {
              const int64_t j1 = std::min(c, j0 + kBlock);
              for (int64_t i = i0; i < i1; ++i) {
                for (int64_t j = j0; j < j1; ++j) {
                  std::memcpy(dst + (j * r + i) * esize,
                              src + (i * c + j) * esize, esize);
                }
              }
            }
          }
        });
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    c.bytes_written = ctx.input(0).bytes();
    return c;
  }
};
TFHPC_REGISTER_KERNEL_ALL("Transpose", TransposeKernel);

// ---- Slice ----------------------------------------------------------------------
// attrs: begin (shape-encoded), size (shape-encoded). Rank 1 or 2.

class SliceKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    TFHPC_ASSIGN_OR_RETURN(Shape begin, ctx->node().AttrShape("begin"));
    TFHPC_ASSIGN_OR_RETURN(Shape size, ctx->node().AttrShape("size"));
    if (begin.rank() != a.shape().rank() || size.rank() != a.shape().rank()) {
      return InvalidArgument("Slice begin/size rank mismatch with input " +
                             a.shape().ToString());
    }
    for (int d = 0; d < a.shape().rank(); ++d) {
      if (begin.dim(d) < 0 || size.dim(d) < 0 ||
          begin.dim(d) + size.dim(d) > a.shape().dim(d)) {
        return OutOfRange("Slice [" + begin.ToString() + "+" + size.ToString() +
                          "] outside " + a.shape().ToString());
      }
    }
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), size, &out, ZeroInit::kNo));
    const size_t esize = DTypeSize(a.dtype());
    const auto* src = static_cast<const uint8_t*>(a.raw_data());
    auto* dst = static_cast<uint8_t*>(out.raw_data());
    if (a.shape().rank() == 1) {
      std::memcpy(dst, src + begin.dim(0) * static_cast<int64_t>(esize),
                  static_cast<size_t>(size.dim(0)) * esize);
    } else if (a.shape().rank() == 2) {
      const int64_t in_w = a.shape().dim(1);
      for (int64_t row = 0; row < size.dim(0); ++row) {
        std::memcpy(
            dst + row * size.dim(1) * static_cast<int64_t>(esize),
            src + ((begin.dim(0) + row) * in_w + begin.dim(1)) *
                      static_cast<int64_t>(esize),
            static_cast<size_t>(size.dim(1)) * esize);
      }
    } else {
      return Unimplemented("Slice supports rank 1-2, got rank " +
                           std::to_string(a.shape().rank()));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Slice", SliceKernel);

// ---- Concat (variadic, rank 1 or rank 2 along axis 0) -----------------------------

class ConcatKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    if (ctx->num_inputs() == 0) return InvalidArgument("Concat of nothing");
    const DType dtype = ctx->input(0).dtype();
    const int rank = ctx->input(0).shape().rank();
    if (rank < 1 || rank > 2) {
      return Unimplemented("Concat supports rank 1-2");
    }
    int64_t rows = 0;
    const int64_t cols = rank == 2 ? ctx->input(0).shape().dim(1) : 1;
    for (int i = 0; i < ctx->num_inputs(); ++i) {
      const Tensor& t = ctx->input(i);
      if (t.dtype() != dtype || t.shape().rank() != rank ||
          (rank == 2 && t.shape().dim(1) != cols)) {
        return InvalidArgument("Concat: inconsistent operand " +
                               std::to_string(i));
      }
      rows += t.shape().dim(0);
    }
    const Shape out_shape = rank == 2 ? Shape{rows, cols} : Shape{rows};
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(dtype, out_shape, &out, ZeroInit::kNo));
    auto* dst = static_cast<uint8_t*>(out.raw_data());
    for (int i = 0; i < ctx->num_inputs(); ++i) {
      const Tensor& t = ctx->input(i);
      std::memcpy(dst, t.raw_data(), static_cast<size_t>(t.bytes()));
      dst += t.bytes();
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Concat", ConcatKernel);

// ---- Cast ----------------------------------------------------------------------

template <typename From, typename To>
void CastLoop(const Tensor& in, Tensor& out) {
  const auto src = in.data<From>();
  auto* dst = out.mutable_data<To>();
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<To>(src[i]);
  }
}

class CastKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    TFHPC_ASSIGN_OR_RETURN(DType to, ctx->node().AttrType("to"));
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(to, a.shape(), &out, ZeroInit::kNo));
    const auto pair = std::make_pair(a.dtype(), to);
    if (pair == std::make_pair(DType::kF32, DType::kF64)) {
      CastLoop<float, double>(a, out);
    } else if (pair == std::make_pair(DType::kF64, DType::kF32)) {
      CastLoop<double, float>(a, out);
    } else if (pair == std::make_pair(DType::kI32, DType::kI64)) {
      CastLoop<int32_t, int64_t>(a, out);
    } else if (pair == std::make_pair(DType::kI64, DType::kI32)) {
      CastLoop<int64_t, int32_t>(a, out);
    } else if (pair == std::make_pair(DType::kI64, DType::kF64)) {
      CastLoop<int64_t, double>(a, out);
    } else if (pair == std::make_pair(DType::kF64, DType::kI64)) {
      CastLoop<double, int64_t>(a, out);
    } else if (pair == std::make_pair(DType::kI32, DType::kF32)) {
      CastLoop<int32_t, float>(a, out);
    } else if (a.dtype() == to) {
      std::memcpy(out.raw_data(), a.raw_data(),
                  static_cast<size_t>(a.bytes()));
    } else {
      return Unimplemented(std::string("Cast ") + DTypeName(a.dtype()) +
                           " -> " + DTypeName(to));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Cast", CastKernel);

// ---- Neg -----------------------------------------------------------------------

class NegKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), a.shape(), &out, ZeroInit::kNo));
    const int64_t n = a.num_elements();
    switch (a.dtype()) {
      case DType::kF32: {
        const auto s = a.data<float>();
        auto* d = out.mutable_data<float>();
        for (int64_t i = 0; i < n; ++i) d[i] = -s[static_cast<size_t>(i)];
        break;
      }
      case DType::kF64: {
        const auto s = a.data<double>();
        auto* d = out.mutable_data<double>();
        for (int64_t i = 0; i < n; ++i) d[i] = -s[static_cast<size_t>(i)];
        break;
      }
      case DType::kC128: {
        const auto s = a.data<std::complex<double>>();
        auto* d = out.mutable_data<std::complex<double>>();
        for (int64_t i = 0; i < n; ++i) d[i] = -s[static_cast<size_t>(i)];
        break;
      }
      default:
        return Unimplemented("Neg for dtype " +
                             std::string(DTypeName(a.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Neg", NegKernel);

// ---- ReduceMax / ReduceMin / ReduceMean --------------------------------------------

enum class Agg { kMax, kMin, kMean };

class ReduceAggKernel : public OpKernel {
 public:
  explicit ReduceAggKernel(Agg agg) : agg_(agg) {}

  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    if (a.num_elements() == 0) {
      return InvalidArgument("reduction over empty tensor");
    }
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(a.dtype(), Shape{}, &out, ZeroInit::kNo));
    if (a.dtype() == DType::kF64) {
      *out.mutable_data<double>() = Reduce<double>(a);
    } else if (a.dtype() == DType::kF32) {
      *out.mutable_data<float>() = Reduce<float>(a);
    } else {
      return Unimplemented("reduction for dtype " +
                           std::string(DTypeName(a.dtype())));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }

 private:
  template <typename T>
  T Reduce(const Tensor& a) const {
    const auto s = a.data<T>();
    if (agg_ == Agg::kMean) {
      double acc = 0;
      for (T v : s) acc += static_cast<double>(v);
      return static_cast<T>(acc / static_cast<double>(s.size()));
    }
    T best = s[0];
    for (T v : s) best = agg_ == Agg::kMax ? std::max(best, v) : std::min(best, v);
    return best;
  }

  Agg agg_;
};

class ReduceMaxKernel : public ReduceAggKernel {
 public:
  ReduceMaxKernel() : ReduceAggKernel(Agg::kMax) {}
};
class ReduceMinKernel : public ReduceAggKernel {
 public:
  ReduceMinKernel() : ReduceAggKernel(Agg::kMin) {}
};
class ReduceMeanKernel : public ReduceAggKernel {
 public:
  ReduceMeanKernel() : ReduceAggKernel(Agg::kMean) {}
};
TFHPC_REGISTER_KERNEL_ALL("ReduceMax", ReduceMaxKernel);
TFHPC_REGISTER_KERNEL_ALL("ReduceMin", ReduceMinKernel);
TFHPC_REGISTER_KERNEL_ALL("ReduceMean", ReduceMeanKernel);

// ---- Fill / ZerosLike ----------------------------------------------------------------

class FillKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    TFHPC_ASSIGN_OR_RETURN(DType dtype, ctx->node().AttrType("dtype"));
    TFHPC_ASSIGN_OR_RETURN(Shape shape, ctx->node().AttrShape("shape"));
    TFHPC_ASSIGN_OR_RETURN(double value, ctx->node().AttrFloat("value"));
    Tensor out;
    TFHPC_RETURN_IF_ERROR(
        ctx->AllocateOutput(dtype, std::move(shape), &out, ZeroInit::kNo));
    const int64_t n = out.num_elements();
    if (dtype == DType::kF64) {
      auto* d = out.mutable_data<double>();
      for (int64_t i = 0; i < n; ++i) d[i] = value;
    } else if (dtype == DType::kF32) {
      auto* d = out.mutable_data<float>();
      for (int64_t i = 0; i < n; ++i) d[i] = static_cast<float>(value);
    } else {
      return Unimplemented("Fill for dtype " +
                           std::string(DTypeName(dtype)));
    }
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("Fill", FillKernel);

class ZerosLikeKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    const Tensor& a = ctx->input(0);
    // AllocateOutput's default ZeroInit::kYes IS the kernel: pooled blocks
    // come back dirty, so ZerosLike must keep the explicit zeroing path.
    Tensor out;
    TFHPC_RETURN_IF_ERROR(ctx->AllocateOutput(a.dtype(), a.shape(), &out));
    ctx->set_output(0, std::move(out));
    return Status::OK();
  }
};
TFHPC_REGISTER_KERNEL_ALL("ZerosLike", ZerosLikeKernel);

}  // namespace
}  // namespace tfhpc
