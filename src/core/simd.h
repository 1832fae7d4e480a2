// The SIMD tier of this CPU, read from CPUID once per process. Code with
// per-tier kernels (the packed GEMM's micro-tiles, the payload checksum's
// stripe loop) writes its loop once as a template over vector width,
// instantiates it in one function per tier (the wide ones carrying
// __attribute__((target(...)))), and calls the widest tier the probe allows.
// Nothing else in the library is built for more than the baseline ISA.
#pragma once

#include <vector>

// GCC/Clang vector extensions (`vector_size` types) are available.
#if defined(__GNUC__) || defined(__clang__)
#define TFHPC_SIMD_VEC 1
// The wide x86 tiers can be compiled with target attributes.
#if defined(__x86_64__) || defined(__i386__)
#define TFHPC_SIMD_X86 1
#endif
#endif

namespace tfhpc {

// Ordered by vector width: 16-byte vectors (SSE2, or NEON off x86), 32-byte
// AVX2 (with FMA), 64-byte AVX-512F (with FMA).
enum class SimdTier { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };

const char* SimdTierName(SimdTier tier);

// The widest tier this CPU supports: avx512f+fma, else avx2+fma, else the
// baseline.
SimdTier DetectedSimdTier();

// Every tier this CPU can run, baseline first; the last is the detected one.
std::vector<SimdTier> SupportedSimdTiers();

}  // namespace tfhpc
