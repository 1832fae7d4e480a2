// GEMM ablation: the pre-PR auto-vectorized i-k-j blocked loop ("loop")
// versus the packed register-tiled kernel on every micro-kernel tier the
// host supports (baseline, avx2, avx512 — one column each; blas::Gemm runs
// the widest) across sizes × dtypes × thread counts, wall-clock Gflops/s.
// Also gates numerics: every tier is checked against a naive triple-loop
// reference; tolerance 1e-5*k (f32) / 1e-12*k (f64) absolute on inputs in
// [-1, 1]. Writes BENCH_gemm.json, including the detected tier.
//
//   ./ablation_gemm            # full matrix up to 1024^3, asserts the
//                              # detected tier's f32 kernel >= 2x the loop
//                              # at 1024
//   ./ablation_gemm --smoke    # CI leg: small sizes, numerics gate only
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/threadpool.h"
#include "kernels/gemm.h"
#include "kernels/gemm_tiers.h"

namespace {

using tfhpc::ThreadPool;
using tfhpc::SimdTier;
using tfhpc::SimdTierName;

// The pre-PR kernel, verbatim: cache-blocked i-k-j with the j-loop left to
// the auto-vectorizer, parallelized over kMc row panels.
namespace loop {
constexpr int64_t kMc = 64, kKc = 256, kNc = 512;

template <typename T>
void GemmPanel(const T* a, const T* b, T* c, int64_t r0, int64_t r1, int64_t n,
               int64_t k) {
  for (int64_t kk = 0; kk < k; kk += kKc) {
    const int64_t kend = std::min(k, kk + kKc);
    for (int64_t jj = 0; jj < n; jj += kNc) {
      const int64_t jend = std::min(n, jj + kNc);
      for (int64_t i = r0; i < r1; ++i) {
        T* crow = c + i * n;
        const T* arow = a + i * k;
        for (int64_t p = kk; p < kend; ++p) {
          const T av = arow[p];
          const T* brow = b + p * n;
          for (int64_t j = jj; j < jend; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

template <typename T>
void Gemm(const T* a, const T* b, T* c, int64_t m, int64_t n, int64_t k,
          ThreadPool* pool) {
  std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(T));
  pool->ParallelFor((m + kMc - 1) / kMc, 1, [&](int64_t pb, int64_t pe) {
    for (int64_t p = pb; p < pe; ++p) {
      GemmPanel(a, b, c, p * kMc, std::min(m, (p + 1) * kMc), n, k);
    }
  });
}
}  // namespace loop

template <typename T>
void FillOperands(std::vector<T>& a, std::vector<T>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<T>(std::sin(0.001 * static_cast<double>(i)));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<T>(std::cos(0.001 * static_cast<double>(i)));
  }
}

template <typename F>
double BestGflops(F run, int64_t n, int reps) {
  double best_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n) / best_s / 1e9;
}

// max|tier - naive triple loop| at size n for each host tier, in
// SupportedSimdTiers() order; both dtypes share this shape.
template <typename T>
std::vector<double> MaxDiffVsNaive(int64_t n) {
  std::vector<T> a(static_cast<size_t>(n * n)), b(static_cast<size_t>(n * n)),
      c(static_cast<size_t>(n * n));
  FillOperands(a, b);
  // The naive reference accumulates in f64 either way; compare in the
  // working dtype so the tolerance reflects kernel-vs-kernel ordering, not
  // f32 accumulation error.
  std::vector<T> ref(static_cast<size_t>(n * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t p = 0; p < n; ++p) {
        acc += static_cast<double>(a[static_cast<size_t>(i * n + p)]) *
               static_cast<double>(b[static_cast<size_t>(p * n + j)]);
      }
      ref[static_cast<size_t>(i * n + j)] = static_cast<T>(acc);
    }
  }
  std::vector<double> diffs;
  for (const SimdTier tier : tfhpc::SupportedSimdTiers()) {
    tfhpc::blas::GemmOnTier(tier, a.data(), b.data(), c.data(), n, n, n);
    double md = 0;
    for (size_t e = 0; e < c.size(); ++e) {
      md = std::max(md, std::abs(static_cast<double>(c[e]) -
                                 static_cast<double>(ref[e])));
    }
    diffs.push_back(md);
  }
  return diffs;
}

template <typename T>
void RunDtype(const char* dtype, const std::vector<int64_t>& sizes,
              const std::vector<int>& threads, int reps,
              tfhpc::bench::JsonResults& json, double* speedup_1024_f32) {
  for (int64_t n : sizes) {
    std::vector<T> a(static_cast<size_t>(n * n)),
        b(static_cast<size_t>(n * n)), c(static_cast<size_t>(n * n));
    FillOperands(a, b);
    for (int nt : threads) {
      ThreadPool pool(nt, "gemmbench");
      const double g_loop = BestGflops(
          [&] { loop::Gemm(a.data(), b.data(), c.data(), n, n, n, &pool); }, n,
          reps);
      std::printf("%-4s n=%5lld threads=%d  loop %7.2f GF", dtype,
                  static_cast<long long>(n), nt, g_loop);
      json.Record()
          .Str("dtype", dtype)
          .Num("n", static_cast<double>(n))
          .Num("threads", nt)
          .Num("gflops_loop", g_loop);
      double g_tier = 0;
      for (const SimdTier tier : tfhpc::SupportedSimdTiers()) {
        g_tier = BestGflops(
            [&] {
              tfhpc::blas::GemmOnTier(tier, a.data(), b.data(), c.data(), n,
                                      n, n, /*beta_zero=*/true, &pool);
            },
            n, reps);
        std::printf("  %s %7.2f GF", SimdTierName(tier), g_tier);
        json.Num(std::string("gflops_") + SimdTierName(tier), g_tier);
      }
      // The last tier run is the detected one, which blas::Gemm uses.
      const double speedup = g_tier / g_loop;
      std::printf("  speedup %5.2fx\n", speedup);
      json.Num("speedup", speedup);
      if (speedup_1024_f32 != nullptr && n == 1024 &&
          std::string(dtype) == "f32") {
        *speedup_1024_f32 = std::max(*speedup_1024_f32, speedup);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  tfhpc::bench::Header("GEMM ablation: i-k-j loop vs packed register tiles",
                       "Fig. 8 single-node compute substrate");

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{128, 256}
            : std::vector<int64_t>{128, 256, 512, 1024};
  const std::vector<int> threads =
      smoke ? std::vector<int>{1} : std::vector<int>{1, 2, 4};
  const int reps = smoke ? 1 : 3;

  tfhpc::bench::JsonResults json("gemm");
  json.Meta("mode", smoke ? "smoke" : "full");
  json.Meta("tol_f32_per_k", 1e-5);
  json.Meta("tol_f64_per_k", 1e-12);

  const char* detected = SimdTierName(tfhpc::DetectedSimdTier());
  json.Meta("detected_tier", detected);
  std::printf("detected tier: %s (blas::Gemm runs it)\n", detected);

  // Numerics gate first: every host tier vs the naive triple loop.
  const int64_t nv = smoke ? 192 : 384;  // off-tile sizes exercise tails
  const std::vector<double> diff32 = MaxDiffVsNaive<float>(nv);
  const std::vector<double> diff64 = MaxDiffVsNaive<double>(nv);
  const double tol32 = 1e-5 * static_cast<double>(nv);
  const double tol64 = 1e-12 * static_cast<double>(nv);
  json.Meta("naive_check_n", static_cast<double>(nv));
  bool diverged = false;
  const std::vector<SimdTier> tiers = tfhpc::SupportedSimdTiers();
  for (size_t t = 0; t < tiers.size(); ++t) {
    const std::string name = SimdTierName(tiers[t]);
    std::printf("numerics vs naive (n=%lld, %s): f32 max|diff| %.3g (tol "
                "%.3g), f64 %.3g (tol %.3g)\n",
                static_cast<long long>(nv), name.c_str(), diff32[t], tol32,
                diff64[t], tol64);
    json.Meta("max_diff_f32_" + name, diff32[t]);
    json.Meta("max_diff_f64_" + name, diff64[t]);
    diverged = diverged || diff32[t] > tol32 || diff64[t] > tol64;
  }
  if (diverged) {
    std::fprintf(stderr, "FAIL: packed GEMM diverges from naive reference\n");
    return 2;
  }

  tfhpc::bench::Rule();
  double speedup_1024_f32 = 0;
  tfhpc::bench::JsonResults& j = json;
  RunDtype<float>("f32", sizes, threads, reps, j, &speedup_1024_f32);
  RunDtype<double>("f64", sizes, threads, reps, j, nullptr);
  tfhpc::bench::Rule();

  if (!smoke) {
    json.Meta("speedup_1024_f32", speedup_1024_f32);
    std::printf("f32 1024^3 %s vs loop: %.2fx (acceptance floor 2x)\n",
                detected, speedup_1024_f32);
    if (speedup_1024_f32 < 2.0) {
      std::fprintf(stderr, "FAIL: packed f32 GEMM below 2x at 1024^3\n");
      json.WriteFile("BENCH_gemm.json");
      return 2;
    }
  }
  if (!json.WriteFile("BENCH_gemm.json")) return 1;
  std::printf("gemm ablation: numerics OK%s\n",
              smoke ? " (smoke)" : ", speedup floor met");
  return 0;
}
