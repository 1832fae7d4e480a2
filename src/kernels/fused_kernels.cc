// FusedElementwise: executes a whole elementwise chain (built by the
// optimizer's fusion pass) in one kernel dispatch. Each stage's inner loop
// mirrors the corresponding unfused kernel exactly — same ParallelFor grain,
// same accumulation order, same serial loops — so a fused chain is
// bit-identical to running the nodes separately.
//
// A chain may end in a trailing reduction (Dot/ReduceSum). The reduction
// shares kReduceChunk boundaries and ChunkSum/ChunkDot with the unfused
// reduction kernels, and when the chain is Cast-free it streams: each
// kReduceChunk-sized block of the elementwise prefix is evaluated into stack
// scratch and reduced immediately — one memory sweep, no materialized
// intermediate — while still matching the unfused graph bit for bit
// (elementwise values are pointwise, and the reduction consumes them in the
// identical chunk order).
#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/threadpool.h"
#include "kernels/kernel.h"
#include "kernels/reduction.h"
#include "optimizer/fused_spec.h"

namespace tfhpc {
namespace {

using optimizer::FusedStage;
using optimizer::IsFusedReduction;
using optimizer::ParseFusedStages;

enum class BinOp { kAdd, kSub, kMul, kDiv };

// Identical to math_kernels.cc ApplyBin (grain 8192, per-element switch):
// the fused result must match the unfused chain bit for bit.
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

template <typename T>
void ApplyAxpy(const T* alpha, const T* xs, const T* ys, T* d, int64_t n) {
  const T av = *alpha;
  ThreadPool::Global().ParallelFor(n, 8192, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      d[i] = av * xs[static_cast<size_t>(i)] + ys[static_cast<size_t>(i)];
  });
}

template <typename T>
void ApplySqrt(const T* s, T* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) d[i] = std::sqrt(s[static_cast<size_t>(i)]);
}

template <typename T>
void ApplyNeg(const T* s, T* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i) d[i] = -s[static_cast<size_t>(i)];
}

template <typename From, typename To>
void ApplyCast(const From* s, To* d, int64_t n) {
  for (int64_t i = 0; i < n; ++i)
    d[i] = static_cast<To>(s[static_cast<size_t>(i)]);
}

Result<BinOp> BinOpFor(const std::string& op) {
  if (op == "Add") return BinOp::kAdd;
  if (op == "Sub") return BinOp::kSub;
  if (op == "Mul") return BinOp::kMul;
  if (op == "Div") return BinOp::kDiv;
  return Internal("not a binary op: " + op);
}

bool IsBinary(const std::string& op) {
  return op == "Add" || op == "Sub" || op == "Mul" || op == "Div";
}

// Evaluates the elementwise prefix (stages [0, ew)) for elements
// [lo, lo + len) of the chain into the two alternating scratch buffers,
// returning a pointer to the final stage's values. Arithmetic per element is
// exactly the unfused kernels' — pointwise ops don't care how the index
// space is partitioned. Callers guarantee the chain has one dtype (no Cast)
// and len <= kReduceChunk.
template <typename T>
const T* EvalChainChunk(const std::vector<FusedStage>& stages, size_t ew,
                        OpKernelContext* ctx, int64_t lo, int64_t len, T* buf0,
                        T* buf1) {
  const T* cur = nullptr;
  T* next = buf0;
  for (size_t k = 0; k < ew; ++k) {
    const FusedStage& st = stages[k];
    auto ptr = [&](int r, bool* scalar) -> const T* {
      if (r == FusedStage::kPrev) {
        *scalar = false;
        return cur;
      }
      const Tensor& t = ctx->input(r);
      *scalar = t.shape().IsScalar();
      return *scalar ? t.data<T>().data() : t.data<T>().data() + lo;
    };
    if (IsBinary(st.op)) {
      bool as = false, bs = false;
      const T* a = ptr(st.operands[0], &as);
      const T* b = ptr(st.operands[1], &bs);
      const BinOp bop = st.op == "Add"   ? BinOp::kAdd
                        : st.op == "Sub" ? BinOp::kSub
                        : st.op == "Mul" ? BinOp::kMul
                                         : BinOp::kDiv;
      for (int64_t i = 0; i < len; ++i) {
        const T x = a[as ? 0 : i];
        const T y = b[bs ? 0 : i];
        switch (bop) {
          case BinOp::kAdd: next[i] = x + y; break;
          case BinOp::kSub: next[i] = x - y; break;
          case BinOp::kMul: next[i] = x * y; break;
          case BinOp::kDiv: next[i] = x / y; break;
        }
      }
    } else if (st.op == "Axpy") {
      bool s = false;
      const T av = *ptr(st.operands[0], &s);
      const T* xs = ptr(st.operands[1], &s);
      const T* ys = ptr(st.operands[2], &s);
      for (int64_t i = 0; i < len; ++i) next[i] = av * xs[i] + ys[i];
    } else if (st.op == "Sqrt") {
      bool s = false;
      const T* a = ptr(st.operands[0], &s);
      for (int64_t i = 0; i < len; ++i) next[i] = std::sqrt(a[i]);
    } else {  // Neg
      bool s = false;
      const T* a = ptr(st.operands[0], &s);
      for (int64_t i = 0; i < len; ++i) next[i] = -a[i];
    }
    cur = next;
    next = (next == buf0) ? buf1 : buf0;
  }
  return cur;
}

// Streaming trailing-reduction execution: per reduction chunk, evaluate the
// elementwise prefix into scratch and reduce it in place; combine partials
// serially in chunk order. Bit-identical to materialize-then-reduce because
// chunk boundaries and ChunkSum/ChunkDot are shared with the unfused
// Dot/ReduceSum kernels.
template <typename T>
T StreamReduceChain(const std::vector<FusedStage>& stages,
                    OpKernelContext* ctx, int64_t n) {
  using Acc = typename blas::ReduceAccum<T>::type;
  const FusedStage& red = stages.back();
  const size_t ew = stages.size() - 1;
  const int64_t chunks = blas::NumReduceChunks(n);
  std::vector<Acc> partials(static_cast<size_t>(chunks));
  ThreadPool::Global().ParallelFor(
      chunks, blas::kReduceGrainChunks, [&](int64_t cb, int64_t ce) {
        alignas(64) T buf0[blas::kReduceChunk];
        alignas(64) T buf1[blas::kReduceChunk];
        for (int64_t c = cb; c < ce; ++c) {
          const int64_t lo = c * blas::kReduceChunk;
          const int64_t len = std::min(blas::kReduceChunk, n - lo);
          const T* vals =
              EvalChainChunk<T>(stages, ew, ctx, lo, len, buf0, buf1);
          if (red.op == "ReduceSum") {
            partials[static_cast<size_t>(c)] = blas::ChunkSum(vals, len);
          } else {  // Dot
            auto side = [&](int r) -> const T* {
              return r == FusedStage::kPrev
                         ? vals
                         : ctx->input(r).data<T>().data() + lo;
            };
            partials[static_cast<size_t>(c)] = blas::ChunkDot(
                side(red.operands[0]), side(red.operands[1]), len);
          }
        }
      });
  return static_cast<T>(blas::CombineChunks(partials));
}

class FusedElementwiseKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    TFHPC_ASSIGN_OR_RETURN(
        const std::vector<FusedStage> stages,
        ParseFusedStages(ctx->node().def(), ctx->num_inputs()));

    // Static walk first: per-stage result dtype/shape with the unfused
    // kernels' exact operand checks, so a fused chain rejects exactly the
    // graphs its unfused stages would.
    const size_t ns = stages.size();
    std::vector<DType> out_dtype(ns);
    std::vector<Shape> out_shape(ns);
    for (size_t k = 0; k < ns; ++k) {
      const FusedStage& st = stages[k];
      auto opnd_dtype = [&](int r) {
        return r == FusedStage::kPrev ? out_dtype[k - 1]
                                      : ctx->input(r).dtype();
      };
      auto opnd_shape = [&](int r) -> const Shape& {
        return r == FusedStage::kPrev ? out_shape[k - 1]
                                      : ctx->input(r).shape();
      };
      if (IsBinary(st.op)) {
        const Shape& a = opnd_shape(st.operands[0]);
        const Shape& b = opnd_shape(st.operands[1]);
        if (opnd_dtype(st.operands[0]) != opnd_dtype(st.operands[1])) {
          return InvalidArgument("fused " + st.op + " dtype mismatch");
        }
        if (!a.IsScalar() && !b.IsScalar() && a != b) {
          return InvalidArgument("fused " + st.op + " shape mismatch: " +
                                 a.ToString() + " vs " + b.ToString());
        }
        out_dtype[k] = opnd_dtype(st.operands[0]);
        out_shape[k] = a.IsScalar() ? b : a;
      } else if (st.op == "Axpy") {
        const Shape& alpha = opnd_shape(st.operands[0]);
        const Shape& x = opnd_shape(st.operands[1]);
        const Shape& y = opnd_shape(st.operands[2]);
        if (!alpha.IsScalar()) {
          return InvalidArgument("fused Axpy alpha must be scalar");
        }
        if (x != y || opnd_dtype(st.operands[1]) != opnd_dtype(st.operands[2]) ||
            opnd_dtype(st.operands[0]) != opnd_dtype(st.operands[1])) {
          return InvalidArgument("fused Axpy operand mismatch");
        }
        out_dtype[k] = opnd_dtype(st.operands[1]);
        out_shape[k] = x;
      } else if (st.op == "Cast") {
        out_dtype[k] = st.cast_to;
        out_shape[k] = opnd_shape(st.operands[0]);
      } else if (st.op == "Dot") {
        const Shape& a = opnd_shape(st.operands[0]);
        const Shape& b = opnd_shape(st.operands[1]);
        if (opnd_dtype(st.operands[0]) != opnd_dtype(st.operands[1])) {
          return InvalidArgument("fused Dot dtype mismatch");
        }
        if (!a.IsVector() || !(a == b)) {
          return InvalidArgument(
              "fused Dot requires two equal-length vectors, got " +
              a.ToString() + " and " + b.ToString());
        }
        out_dtype[k] = opnd_dtype(st.operands[0]);
        out_shape[k] = Shape{};
      } else if (st.op == "ReduceSum") {
        out_dtype[k] = opnd_dtype(st.operands[0]);
        out_shape[k] = Shape{};
      } else {  // Sqrt / Neg: passthrough
        out_dtype[k] = opnd_dtype(st.operands[0]);
        out_shape[k] = opnd_shape(st.operands[0]);
      }
      // The fusion contract: every elementwise stage produces the chain
      // shape, which is what makes in-place buffer reuse across stages
      // legal. A trailing reduction is the one exception — it collapses the
      // chain to a scalar (ParseFusedStages pins it to the final stage).
      if (k > 0 && !IsFusedReduction(st.op) &&
          !(out_shape[k] == out_shape[0])) {
        return InvalidArgument("fused chain shape drifted at stage " +
                               std::to_string(k) + ": " +
                               out_shape[k].ToString() + " vs " +
                               out_shape[0].ToString());
      }
    }
    const bool has_reduction = IsFusedReduction(stages[ns - 1].op);
    // Stages evaluated elementwise (all of them, minus a trailing reduction).
    const size_t ew = has_reduction ? ns - 1 : ns;

    // Cast-free single-dtype reduction chains stream chunk-by-chunk instead
    // of materializing the elementwise prefix.
    if (has_reduction) {
      bool streaming = out_dtype[0] == DType::kF32 || out_dtype[0] == DType::kF64;
      for (size_t k = 0; k < ew; ++k) {
        if (stages[k].op == "Cast") streaming = false;
      }
      if (streaming) {
        Tensor out;
        TFHPC_RETURN_IF_ERROR(ctx->AllocateOutput(out_dtype[ns - 1], Shape{},
                                                  &out, ZeroInit::kNo));
        const int64_t n = out_shape[0].num_elements();
        if (out_dtype[0] == DType::kF32) {
          *out.mutable_data<float>() = StreamReduceChain<float>(stages, ctx, n);
        } else {
          *out.mutable_data<double>() =
              StreamReduceChain<double>(stages, ctx, n);
        }
        ctx->set_output(0, std::move(out));
        return Status::OK();
      }
    }

    Tensor cur;
    for (size_t k = 0; k < ew; ++k) {
      const FusedStage& st = stages[k];
      auto opnd = [&](int r) -> const Tensor& {
        return r == FusedStage::kPrev ? cur : ctx->input(r);
      };

      Tensor dst;
      if (cur.dtype() == out_dtype[k]) {
        dst = cur;  // accumulate in place across the whole chain
      }
      if (!dst.valid()) {
        TFHPC_RETURN_IF_ERROR(ctx->AllocateOutput(out_dtype[k], out_shape[k],
                                                  &dst, ZeroInit::kNo));
      }

      const int64_t n = out_shape[k].num_elements();
      const DType dt = out_dtype[k];
      if (IsBinary(st.op)) {
        TFHPC_ASSIGN_OR_RETURN(const BinOp bop, BinOpFor(st.op));
        const Tensor& a = opnd(st.operands[0]);
        const Tensor& b = opnd(st.operands[1]);
        if (dt == DType::kF32) {
          ApplyBin(bop, a.data<float>().data(), b.data<float>().data(),
                   dst.mutable_data<float>(), n, a.shape().IsScalar(),
                   b.shape().IsScalar());
        } else if (dt == DType::kF64) {
          ApplyBin(bop, a.data<double>().data(), b.data<double>().data(),
                   dst.mutable_data<double>(), n, a.shape().IsScalar(),
                   b.shape().IsScalar());
        } else {
          return Unimplemented("fused " + st.op + " for dtype " +
                               std::string(DTypeName(dt)));
        }
      } else if (st.op == "Axpy") {
        const Tensor& alpha = opnd(st.operands[0]);
        const Tensor& x = opnd(st.operands[1]);
        const Tensor& y = opnd(st.operands[2]);
        if (dt == DType::kF32) {
          ApplyAxpy(alpha.data<float>().data(), x.data<float>().data(),
                    y.data<float>().data(), dst.mutable_data<float>(), n);
        } else if (dt == DType::kF64) {
          ApplyAxpy(alpha.data<double>().data(), x.data<double>().data(),
                    y.data<double>().data(), dst.mutable_data<double>(), n);
        } else {
          return Unimplemented("fused Axpy for dtype " +
                               std::string(DTypeName(dt)));
        }
      } else if (st.op == "Sqrt") {
        const Tensor& a = opnd(st.operands[0]);
        if (dt == DType::kF32) {
          ApplySqrt(a.data<float>().data(), dst.mutable_data<float>(), n);
        } else if (dt == DType::kF64) {
          ApplySqrt(a.data<double>().data(), dst.mutable_data<double>(), n);
        } else {
          return Unimplemented("fused Sqrt for dtype " +
                               std::string(DTypeName(dt)));
        }
      } else if (st.op == "Neg") {
        const Tensor& a = opnd(st.operands[0]);
        if (dt == DType::kF32) {
          ApplyNeg(a.data<float>().data(), dst.mutable_data<float>(), n);
        } else if (dt == DType::kF64) {
          ApplyNeg(a.data<double>().data(), dst.mutable_data<double>(), n);
        } else {
          return Unimplemented("fused Neg for dtype " +
                               std::string(DTypeName(dt)));
        }
      } else {  // Cast
        const Tensor& a = opnd(st.operands[0]);
        if (a.dtype() == DType::kF32 && dt == DType::kF64) {
          ApplyCast(a.data<float>().data(), dst.mutable_data<double>(), n);
        } else if (a.dtype() == DType::kF64 && dt == DType::kF32) {
          ApplyCast(a.data<double>().data(), dst.mutable_data<float>(), n);
        } else if (a.dtype() == dt) {
          if (dst.raw_data() != a.raw_data()) {
            std::memcpy(dst.raw_data(), a.raw_data(),
                        static_cast<size_t>(a.bytes()));
          }
        } else {
          return Unimplemented(std::string("fused Cast ") +
                               DTypeName(a.dtype()) + " -> " + DTypeName(dt));
        }
      }
      cur = std::move(dst);
    }

    // Fallback reduction tail (chains with Cast stages): reduce the
    // materialized chain with the same ParallelSum/ParallelDot the unfused
    // kernels use — still bit-identical, just two sweeps instead of one.
    if (has_reduction) {
      const FusedStage& red = stages[ns - 1];
      auto opnd = [&](int r) -> const Tensor& {
        return r == FusedStage::kPrev ? cur : ctx->input(r);
      };
      const DType dt = out_dtype[ns - 1];
      const int64_t n = out_shape[0].num_elements();
      Tensor out;
      TFHPC_RETURN_IF_ERROR(
          ctx->AllocateOutput(dt, Shape{}, &out, ZeroInit::kNo));
      if (red.op == "Dot") {
        const Tensor& x = opnd(red.operands[0]);
        const Tensor& y = opnd(red.operands[1]);
        if (dt == DType::kF32) {
          *out.mutable_data<float>() = static_cast<float>(blas::ParallelDot(
              x.data<float>().data(), y.data<float>().data(), n));
        } else if (dt == DType::kF64) {
          *out.mutable_data<double>() = blas::ParallelDot(
              x.data<double>().data(), y.data<double>().data(), n);
        } else {
          return Unimplemented("fused Dot for dtype " +
                               std::string(DTypeName(dt)));
        }
      } else {  // ReduceSum
        const Tensor& x = opnd(red.operands[0]);
        if (dt == DType::kF32) {
          *out.mutable_data<float>() =
              static_cast<float>(blas::ParallelSum(x.data<float>().data(), n));
        } else if (dt == DType::kF64) {
          *out.mutable_data<double>() =
              blas::ParallelSum(x.data<double>().data(), n);
        } else {
          return Unimplemented("fused ReduceSum for dtype " +
                               std::string(DTypeName(dt)));
        }
      }
      cur = std::move(out);
    }
    ctx->set_output(0, std::move(cur));
    return Status::OK();
  }

  CostEstimate Cost(const OpKernelContext& ctx) const override {
    CostEstimate c = OpKernel::Cost(ctx);
    auto stages = ParseFusedStages(ctx.node().def(), ctx.num_inputs());
    if (!stages.ok()) return c;
    int64_t n = 0;
    for (int i = 0; i < ctx.num_inputs(); ++i) {
      n = std::max(n, ctx.input(i).num_elements());
    }
    double flops = 0;
    for (const FusedStage& st : *stages) {
      if (st.op == "Axpy" || st.op == "Dot") {
        flops += 2.0 * static_cast<double>(n);
      } else if (st.op != "Cast") {
        flops += static_cast<double>(n);
      }
    }
    c.flops = flops;
    // One result write per step; intermediates stay in the reused buffer (or
    // never exist at all: a trailing reduction writes one scalar).
    if (ctx.num_inputs() > 0) {
      const int64_t dsz =
          static_cast<int64_t>(DTypeSize(ctx.input(0).dtype()));
      c.bytes_written = IsFusedReduction(stages->back().op) ? dsz : n * dsz;
    }
    return c;
  }
};

TFHPC_REGISTER_KERNEL_ALL("FusedElementwise", FusedElementwiseKernel);

}  // namespace
}  // namespace tfhpc
