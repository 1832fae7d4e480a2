// Micro-kernel tiers of blas::Gemm. Private to the kernels layer: Gemm picks
// the widest tier the CPU supports on its own, and this header exists only so
// tests and bench/ablation_gemm can run every tier the host supports.
#pragma once

#include <cstdint>
#include <vector>

namespace tfhpc {
class ThreadPool;
}  // namespace tfhpc

namespace tfhpc::blas {

// Ordered by vector width: 16-byte vectors (SSE2, or NEON off x86), 32-byte
// AVX2+FMA, 64-byte AVX-512F.
enum class GemmTier { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };

const char* GemmTierName(GemmTier tier);

// The widest tier this CPU supports, read from CPUID once per process.
GemmTier DetectedGemmTier();

// Every tier this CPU can run, baseline first; the last is the detected one.
std::vector<GemmTier> SupportedGemmTiers();

// blas::Gemm on an explicit tier, which must not be wider than
// DetectedGemmTier() (checked; a wider tier would fault on this CPU).
void GemmOnTier(GemmTier tier, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool beta_zero = true,
                ThreadPool* pool = nullptr);
void GemmOnTier(GemmTier tier, const double* a, const double* b, double* c,
                int64_t m, int64_t n, int64_t k, bool beta_zero = true,
                ThreadPool* pool = nullptr);

}  // namespace tfhpc::blas
