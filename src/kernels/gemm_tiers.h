// Micro-kernel tiers of blas::Gemm. Private to the kernels layer: Gemm picks
// the widest tier the CPU supports on its own (DetectedSimdTier(),
// core/simd.h), and this header exists only so tests and bench/ablation_gemm
// can run every tier the host supports.
#pragma once

#include <cstdint>

#include "core/simd.h"

namespace tfhpc {
class ThreadPool;
}  // namespace tfhpc

namespace tfhpc::blas {

// blas::Gemm on an explicit tier, which must not be wider than
// DetectedSimdTier() (checked; a wider tier would fault on this CPU).
void GemmOnTier(SimdTier tier, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool beta_zero = true,
                ThreadPool* pool = nullptr);
void GemmOnTier(SimdTier tier, const double* a, const double* b, double* c,
                int64_t m, int64_t n, int64_t k, bool beta_zero = true,
                ThreadPool* pool = nullptr);

}  // namespace tfhpc::blas
