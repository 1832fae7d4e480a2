#include "kernels/gemm.h"

#include <algorithm>
#include <cstring>

#include "core/buffer.h"
#include "core/logging.h"
#include "core/threadpool.h"
#include "kernels/gemm_tiers.h"

namespace tfhpc::blas {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#define TFHPC_GEMM_VEC 1
#if defined(__x86_64__) || defined(__i386__)
#define TFHPC_GEMM_X86 1
#endif
#endif

// Register tile and cache blocks of one (dtype, tier) pair. Each kc-deep
// rank-1 update of an mr x nr C micro-tile runs from registers, the packed
// A block (mc x kc) stays in L1/L2, and the packed B panel (kc x nc) stays
// in L2 while every row block of the panel streams over it. mc is a
// multiple of mr so no row block ends in a padded strip.
struct Blocking {
  int mr, nr;
  int64_t mc, kc, nc;
  // Flop-aware grain: a ParallelFor task must carry at least this many
  // flops, so small matrices run inline instead of sharding into
  // sub-microsecond tasks.
  double min_flops_per_task;
};

// Indexed by GemmTier; chosen by timing each tier through GemmOnTier in the
// Release -O3 build (GCC 12, 4-vCPU Xeon with AVX-512; DESIGN.md §15 has the
// shapes swept). Each tile fills its tier's register file without spilling:
// baseline 16 XMM (f32 16 and f64 12 accumulators), AVX2 16 YMM (12),
// AVX-512 32 ZMM (24). The baseline's kc stays 256: depth panels fix each
// element's summation order, and that tier keeps the SSE2 kernel's results.
//                                    mr  nr  mc   kc    nc  flops/task
constexpr Blocking kF32Blocking[] = {{8, 8, 32, 256, 1024, 8e6},
                                     {6, 16, 24, 512, 1024, 8e6},
                                     {12, 32, 24, 512, 1024, 8e6}};
constexpr Blocking kF64Blocking[] = {{6, 4, 66, 256, 1024, 8e6},
                                     {6, 8, 24, 512, 1024, 8e6},
                                     {12, 16, 24, 512, 1024, 8e6}};

template <typename T>
constexpr Blocking BlockingFor(GemmTier tier) {
  const int i = static_cast<int>(tier);
  return sizeof(T) == sizeof(float) ? kF32Blocking[i] : kF64Blocking[i];
}

int64_t RoundUp(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

// Packs an mc x kc block of A (row-major, leading dimension lda) into
// MR-row strips laid out depth-major: strip ir holds ap[p*MR + i] =
// A[ir+i][p]. Short strips at the m tail are zero-padded so the micro-kernel
// never branches on mr inside its p loop.
template <typename T, int MR>
void PackA(const T* a, int64_t lda, int64_t mc, int64_t kc, T* ap) {
  for (int64_t ir = 0; ir < mc; ir += MR) {
    const int64_t mr = std::min<int64_t>(MR, mc - ir);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t i = 0; i < mr; ++i) ap[p * MR + i] = a[(ir + i) * lda + p];
      for (int64_t i = mr; i < MR; ++i) ap[p * MR + i] = T{0};
    }
    ap += kc * MR;
  }
}

// Packs a kc x nc panel of B into NR-column strips, zero-padding the n tail.
template <typename T, int NR>
void PackB(const T* b, int64_t ldb, int64_t kc, int64_t nc, T* bp) {
  for (int64_t jr = 0; jr < nc; jr += NR) {
    const int64_t nr = std::min<int64_t>(NR, nc - jr);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t j = 0; j < nr; ++j) bp[p * NR + j] = b[p * ldb + jr + j];
      for (int64_t j = nr; j < NR; ++j) bp[p * NR + j] = T{0};
    }
    bp += kc * NR;
  }
}

#if TFHPC_GEMM_VEC

// MR x NR micro-kernel over packed strips: accumulates kc rank-1 updates into
// a register tile of kBytes-wide GCC/Clang vector-extension lanes, then adds
// the tile into C (masking the mr/nr tails). The explicit vectors keep
// codegen stable across optimization levels — the scalar-array formulation
// of this kernel was measured to regress under -O3. Always inlined into its
// tier's kernel below (target-attributed for the wide tiers), so wide
// vectors never cross a call.
template <typename T, int MR, int NR, int kBytes>
__attribute__((always_inline)) inline void MicroTile(int64_t kc, const T* ap,
                                                     const T* bp, T* c,
                                                     int64_t ldc, int64_t mr,
                                                     int64_t nr) {
  typedef T V __attribute__((vector_size(kBytes)));
  constexpr int L = kBytes / static_cast<int>(sizeof(T)), NV = NR / L;
  static_assert(NR % L == 0, "NR must be a whole number of vectors");
  V acc[MR][NV];
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v) acc[i][v] = V{};
  for (int64_t p = 0; p < kc; ++p) {
    const T* __restrict ar = ap + p * MR;
    const T* __restrict br = bp + p * NR;
    V bv[NV];
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], br + L * v, kBytes);
    for (int i = 0; i < MR; ++i) {
      for (int v = 0; v < NV; ++v) acc[i][v] += ar[i] * bv[v];
    }
  }
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i) {
      for (int v = 0; v < NV; ++v) {
        V cv;
        std::memcpy(&cv, c + i * ldc + L * v, kBytes);
        cv += acc[i][v];
        std::memcpy(c + i * ldc + L * v, &cv, kBytes);
      }
    }
    return;
  }
  T out[MR * NR];
  for (int i = 0; i < MR; ++i)
    for (int v = 0; v < NV; ++v)
      std::memcpy(out + i * NR + L * v, &acc[i][v], kBytes);
  for (int64_t i = 0; i < mr; ++i)
    for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] += out[i * NR + j];
}

#else  // !TFHPC_GEMM_VEC

// Portable scalar fallback with the same packed-strip contract.
template <typename T, int MR, int NR, int kBytes>
void MicroTile(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
               int64_t mr, int64_t nr) {
  T acc[MR * NR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const T* __restrict ar = ap + p * MR;
    const T* __restrict br = bp + p * NR;
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < NR; ++j) acc[i * NR + j] += ar[i] * br[j];
  }
  for (int64_t i = 0; i < mr; ++i)
    for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i * NR + j];
}

#endif  // TFHPC_GEMM_VEC

// One micro-kernel per tier, each compiled for its tier's ISA.
template <typename T>
void MicroBaseline(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
                   int64_t mr, int64_t nr) {
  constexpr Blocking kB = BlockingFor<T>(GemmTier::kBaseline);
  MicroTile<T, kB.mr, kB.nr, 16>(kc, ap, bp, c, ldc, mr, nr);
}

#if TFHPC_GEMM_X86
template <typename T>
__attribute__((target("avx2,fma"))) void MicroAvx2(int64_t kc, const T* ap,
                                                   const T* bp, T* c,
                                                   int64_t ldc, int64_t mr,
                                                   int64_t nr) {
  constexpr Blocking kB = BlockingFor<T>(GemmTier::kAvx2);
  MicroTile<T, kB.mr, kB.nr, 32>(kc, ap, bp, c, ldc, mr, nr);
}

template <typename T>
__attribute__((target("avx512f,fma"))) void MicroAvx512(int64_t kc,
                                                        const T* ap,
                                                        const T* bp, T* c,
                                                        int64_t ldc,
                                                        int64_t mr,
                                                        int64_t nr) {
  constexpr Blocking kB = BlockingFor<T>(GemmTier::kAvx512);
  MicroTile<T, kB.mr, kB.nr, 64>(kc, ap, bp, c, ldc, mr, nr);
}
#endif  // TFHPC_GEMM_X86

template <typename T, GemmTier kTier>
void Micro(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
           int64_t mr, int64_t nr) {
#if TFHPC_GEMM_X86
  if constexpr (kTier == GemmTier::kAvx512) {
    return MicroAvx512(kc, ap, bp, c, ldc, mr, nr);
  } else if constexpr (kTier == GemmTier::kAvx2) {
    return MicroAvx2(kc, ap, bp, c, ldc, mr, nr);
  }
#endif
  MicroBaseline(kc, ap, bp, c, ldc, mr, nr);
}

template <typename T, GemmTier kTier>
void GemmImpl(const T* a, const T* b, T* c, int64_t m, int64_t n, int64_t k,
              bool beta_zero, ThreadPool* pool) {
  constexpr Blocking kB = BlockingFor<T>(kTier);
  constexpr int MR = kB.mr, NR = kB.nr;
  static_assert(kB.mc % MR == 0, "mc must be a multiple of mr");
  if (beta_zero) std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(T));
  if (m == 0 || n == 0 || k == 0) return;
  if (pool == nullptr) pool = &ThreadPool::Global();

  // Packing scratch comes from the buffer pool (ZeroInit::kNo — fully
  // written by the pack routines). Bounded: B panel <= KC*NC elements plus
  // one MC*KC A block per concurrent task. Uses the infallible pool path;
  // these are small fixed-size blocks, not tensor-scale allocations.
  const size_t bp_bytes =
      static_cast<size_t>(kB.kc * RoundUp(std::min(kB.nc, n), NR)) *
      sizeof(T);
  auto bp_buf = Buffer::Allocate(bp_bytes, nullptr, ZeroInit::kNo);
  T* bp = static_cast<T*>(bp_buf->data());
  const size_t ap_bytes =
      static_cast<size_t>(RoundUp(std::min(kB.mc, m), MR) * kB.kc) *
      sizeof(T);

  const int64_t row_blocks = (m + kB.mc - 1) / kB.mc;
  for (int64_t jc = 0; jc < n; jc += kB.nc) {
    const int64_t nc = std::min(n, jc + kB.nc) - jc;
    for (int64_t pc = 0; pc < k; pc += kB.kc) {
      const int64_t kc = std::min(k, pc + kB.kc) - pc;
      PackB<T, NR>(b + pc * n + jc, n, kc, nc, bp);
      const double flops_per_block =
          2.0 * static_cast<double>(std::min(kB.mc, m)) *
          static_cast<double>(nc) * static_cast<double>(kc);
      const int64_t grain = std::max<int64_t>(
          1, static_cast<int64_t>(kB.min_flops_per_task / flops_per_block));
      pool->ParallelFor(row_blocks, grain, [&](int64_t blk0, int64_t blk1) {
        auto ap_buf = Buffer::Allocate(ap_bytes, nullptr, ZeroInit::kNo);
        T* ap = static_cast<T*>(ap_buf->data());
        for (int64_t blk = blk0; blk < blk1; ++blk) {
          const int64_t ic = blk * kB.mc;
          const int64_t mc = std::min(m, ic + kB.mc) - ic;
          PackA<T, MR>(a + ic * k + pc, k, mc, kc, ap);
          for (int64_t jr = 0; jr < nc; jr += NR) {
            const T* bpp = bp + jr * kc;
            const int64_t nr = std::min<int64_t>(NR, nc - jr);
            for (int64_t ir = 0; ir < mc; ir += MR) {
              Micro<T, kTier>(kc, ap + ir * kc, bpp,
                              c + (ic + ir) * n + jc + jr, n,
                              std::min<int64_t>(MR, mc - ir), nr);
            }
          }
        }
      });
    }
  }
}

template <typename T>
void GemmDispatch(GemmTier tier, const T* a, const T* b, T* c, int64_t m,
                  int64_t n, int64_t k, bool beta_zero, ThreadPool* pool) {
  switch (tier) {
#if TFHPC_GEMM_X86
    case GemmTier::kAvx512:
      return GemmImpl<T, GemmTier::kAvx512>(a, b, c, m, n, k, beta_zero,
                                            pool);
    case GemmTier::kAvx2:
      return GemmImpl<T, GemmTier::kAvx2>(a, b, c, m, n, k, beta_zero, pool);
#endif
    default:
      return GemmImpl<T, GemmTier::kBaseline>(a, b, c, m, n, k, beta_zero,
                                              pool);
  }
}

// Row dot product with independent accumulators collapsed by a fixed-order
// tree; accumulates in T (Gemv's historical precision).
template <typename T>
T RowDot(const T* __restrict row, const T* __restrict x, int64_t n) {
  constexpr int L = 8;
  T lanes[L] = {};
  int64_t j = 0;
  for (; j + L <= n; j += L)
    for (int l = 0; l < L; ++l) lanes[l] += row[j + l] * x[j + l];
  for (int l = 0; j + l < n; ++l) lanes[l] += row[j + l] * x[j + l];
  for (int w = L / 2; w > 0; w /= 2)
    for (int l = 0; l < w; ++l) lanes[l] += lanes[l + w];
  return lanes[0];
}

template <typename T>
void GemvImpl(const T* a, const T* x, T* y, int64_t m, int64_t n) {
  // Adaptive grain: ~64k multiply-adds per task. Tiny rows batch thousands
  // of rows per task; huge rows go one row at a time.
  constexpr int64_t kTargetElemsPerTask = 1 << 16;
  const int64_t grain = std::clamp<int64_t>(
      kTargetElemsPerTask / std::max<int64_t>(n, 1), 1, 1 << 16);
  ThreadPool::Global().ParallelFor(m, grain, [&](int64_t rb, int64_t re) {
    for (int64_t r = rb; r < re; ++r) y[r] = RowDot(a + r * n, x, n);
  });
}

}  // namespace

const char* GemmTierName(GemmTier tier) {
  switch (tier) {
    case GemmTier::kAvx512:
      return "avx512";
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kBaseline:
      break;
  }
  return "baseline";
}

GemmTier DetectedGemmTier() {
  static const GemmTier tier = [] {
#if TFHPC_GEMM_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
      return GemmTier::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return GemmTier::kAvx2;
    }
#endif
    return GemmTier::kBaseline;
  }();
  return tier;
}

std::vector<GemmTier> SupportedGemmTiers() {
  std::vector<GemmTier> tiers;
  for (int t = 0; t <= static_cast<int>(DetectedGemmTier()); ++t) {
    tiers.push_back(static_cast<GemmTier>(t));
  }
  return tiers;
}

void GemmOnTier(GemmTier tier, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool beta_zero,
                ThreadPool* pool) {
  TFHPC_CHECK(tier <= DetectedGemmTier()) << GemmTierName(tier);
  GemmDispatch(tier, a, b, c, m, n, k, beta_zero, pool);
}
void GemmOnTier(GemmTier tier, const double* a, const double* b, double* c,
                int64_t m, int64_t n, int64_t k, bool beta_zero,
                ThreadPool* pool) {
  TFHPC_CHECK(tier <= DetectedGemmTier()) << GemmTierName(tier);
  GemmDispatch(tier, a, b, c, m, n, k, beta_zero, pool);
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool beta_zero, ThreadPool* pool) {
  GemmDispatch(DetectedGemmTier(), a, b, c, m, n, k, beta_zero, pool);
}
void Gemm(const double* a, const double* b, double* c, int64_t m, int64_t n,
          int64_t k, bool beta_zero, ThreadPool* pool) {
  GemmDispatch(DetectedGemmTier(), a, b, c, m, n, k, beta_zero, pool);
}
void Gemv(const double* a, const double* x, double* y, int64_t m, int64_t n) {
  GemvImpl(a, x, y, m, n);
}
void Gemv(const float* a, const float* x, float* y, int64_t m, int64_t n) {
  GemvImpl(a, x, y, m, n);
}

}  // namespace tfhpc::blas
