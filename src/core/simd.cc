#include "core/simd.h"

namespace tfhpc {

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kBaseline:
      break;
  }
  return "baseline";
}

SimdTier DetectedSimdTier() {
  static const SimdTier tier = [] {
#if TFHPC_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
      return SimdTier::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return SimdTier::kAvx2;
    }
#endif
    return SimdTier::kBaseline;
  }();
  return tier;
}

std::vector<SimdTier> SupportedSimdTiers() {
  std::vector<SimdTier> tiers;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

}  // namespace tfhpc
