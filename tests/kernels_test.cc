// Unit + property tests for the kernel layer: GEMM, FFT, elementwise and
// reduction numerics, meta execution, cost estimates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "core/rng.h"
#include "core/threadpool.h"
#include "graph/ops.h"
#include "kernels/fft_impl.h"
#include "kernels/gemm.h"
#include "kernels/gemm_tiers.h"
#include "kernels/kernel.h"
#include "kernels/reduction.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

// ---- GEMM properties ----------------------------------------------------------

template <typename T>
std::vector<T> NaiveGemm(const std::vector<T>& a, const std::vector<T>& b,
                         int64_t m, int64_t n, int64_t k) {
  std::vector<T> c(static_cast<size_t>(m * n), T{0});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t p = 0; p < k; ++p)
      for (int64_t j = 0; j < n; ++j)
        c[static_cast<size_t>(i * n + j)] +=
            a[static_cast<size_t>(i * k + p)] * b[static_cast<size_t>(p * n + j)];
  return c;
}

class GemmShapeTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesNaiveF64) {
  const auto [m, n, k] = GetParam();
  std::mt19937_64 rng(m * 1000003 + n * 1009 + k);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  auto ref = NaiveGemm(a, b, m, n, k);
  for (const auto tier : blas::SupportedGemmTiers()) {
    SCOPED_TRACE(blas::GemmTierName(tier));
    std::vector<double> c(static_cast<size_t>(m * n));
    blas::GemmOnTier(tier, a.data(), b.data(), c.data(), m, n, k);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], ref[i], 1e-9 * k) << "at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(64, 64, 64), std::make_tuple(65, 63, 130),
                      std::make_tuple(128, 32, 257), std::make_tuple(1, 100, 1),
                      std::make_tuple(200, 1, 50)));

TEST(GemmTest, F32Accumulate) {
  // beta_zero=false must accumulate into existing C.
  std::vector<float> a{1, 2, 3, 4}, b{1, 0, 0, 1};  // 2x2 identity-ish
  for (const auto tier : blas::SupportedGemmTiers()) {
    SCOPED_TRACE(blas::GemmTierName(tier));
    std::vector<float> c{10, 10, 10, 10};
    blas::GemmOnTier(tier, a.data(), b.data(), c.data(), 2, 2, 2,
                     /*beta_zero=*/false);
    EXPECT_FLOAT_EQ(c[0], 11);
    EXPECT_FLOAT_EQ(c[1], 12);
    EXPECT_FLOAT_EQ(c[2], 13);
    EXPECT_FLOAT_EQ(c[3], 14);
  }
}

// gemm.h promises results independent of thread count: each C row block has
// one owner per depth panel, and panels accumulate in serial order. Both
// shapes have at least 3 row blocks and 2 depth panels on every tier.
template <typename T>
void ExpectBitIdenticalAcrossThreadCounts(blas::GemmTier tier, int64_t m,
                                          int64_t n, int64_t k) {
  std::mt19937_64 rng(static_cast<uint64_t>(m * 7919 + n * 31 + k));
  std::uniform_real_distribution<T> dist(-1, 1);
  std::vector<T> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  std::vector<T> first;
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads, "gemmtest");
    std::vector<T> c(static_cast<size_t>(m * n));
    blas::GemmOnTier(tier, a.data(), b.data(), c.data(), m, n, k,
                     /*beta_zero=*/true, &pool);
    if (first.empty()) {
      first = std::move(c);
      continue;
    }
    EXPECT_EQ(std::memcmp(first.data(), c.data(), first.size() * sizeof(T)),
              0)
        << m << "x" << n << "x" << k << " with " << threads << " threads";
  }
}

TEST(GemmTest, BitIdenticalAcrossThreadCounts) {
  for (const auto tier : blas::SupportedGemmTiers()) {
    SCOPED_TRACE(blas::GemmTierName(tier));
    ExpectBitIdenticalAcrossThreadCounts<float>(tier, 300, 257, 600);
    ExpectBitIdenticalAcrossThreadCounts<double>(tier, 300, 257, 600);
    ExpectBitIdenticalAcrossThreadCounts<float>(tier, 512, 512, 1024);
    ExpectBitIdenticalAcrossThreadCounts<double>(tier, 512, 512, 1024);
  }
}

TEST(GemvTest, MatchesManual) {
  // 2x3 matrix times 3-vector.
  std::vector<double> a{1, 2, 3, 4, 5, 6};
  std::vector<double> x{1, 0, -1};
  std::vector<double> y(2);
  blas::Gemv(a.data(), x.data(), y.data(), 2, 3);
  EXPECT_DOUBLE_EQ(y[0], -2);
  EXPECT_DOUBLE_EQ(y[1], -2);
}

TEST(GemvTest, LargeParallelConsistent) {
  const int64_t m = 1000, n = 333;
  std::vector<double> a(static_cast<size_t>(m * n), 0.5);
  std::vector<double> x(static_cast<size_t>(n), 2.0);
  std::vector<double> y(static_cast<size_t>(m));
  blas::Gemv(a.data(), x.data(), y.data(), m, n);
  for (double v : y) EXPECT_NEAR(v, n * 1.0, 1e-9);
}

// ---- packed-GEMM tail shapes -------------------------------------------------
// The register-tiled kernel pads MR/NR strips; every m,n,k combination here
// exercises some mix of full tiles, partial tiles and zero-padded packing.

class GemmTailShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmTailShapeTest, MatchesNaiveF64) {
  const auto [m, n, k] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(m * 1000003 + n * 1009 + k));
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  const auto ref = NaiveGemm(a, b, m, n, k);
  for (const auto tier : blas::SupportedGemmTiers()) {
    SCOPED_TRACE(blas::GemmTierName(tier));
    std::vector<double> c(static_cast<size_t>(m * n));
    blas::GemmOnTier(tier, a.data(), b.data(), c.data(), m, n, k);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], ref[i], 1e-12 * k) << "at " << i;
    }
  }
}

TEST_P(GemmTailShapeTest, MatchesNaiveF32) {
  const auto [m, n, k] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(m * 911 + n * 131071 + k));
  std::uniform_real_distribution<float> dist(-1, 1);
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  const auto ref = NaiveGemm(a, b, m, n, k);
  for (const auto tier : blas::SupportedGemmTiers()) {
    SCOPED_TRACE(blas::GemmTierName(tier));
    std::vector<float> c(static_cast<size_t>(m * n));
    blas::GemmOnTier(tier, a.data(), b.data(), c.data(), m, n, k);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], ref[i], 1e-5f * static_cast<float>(k)) << "at " << i;
    }
  }
}

TEST_P(GemmTailShapeTest, AccumulatesWhenBetaNonzeroF32) {
  const auto [m, n, k] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(m + n * 7 + k * 49));
  std::uniform_real_distribution<float> dist(-1, 1);
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  auto ref = NaiveGemm(a, b, m, n, k);
  for (size_t i = 0; i < ref.size(); ++i) {
    ref[i] += static_cast<float>(i % 7) - 3;
  }
  for (const auto tier : blas::SupportedGemmTiers()) {
    SCOPED_TRACE(blas::GemmTierName(tier));
    std::vector<float> c(static_cast<size_t>(m * n));
    for (size_t i = 0; i < c.size(); ++i) c[i] = static_cast<float>(i % 7) - 3;
    blas::GemmOnTier(tier, a.data(), b.data(), c.data(), m, n, k,
                     /*beta_zero=*/false);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], ref[i], 1e-5f * static_cast<float>(k)) << "at " << i;
    }
  }
}

TEST_P(GemmTailShapeTest, AccumulatesWhenBetaNonzeroF64) {
  const auto [m, n, k] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(m * 13 + n + k * 101));
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  auto ref = NaiveGemm(a, b, m, n, k);
  for (size_t i = 0; i < ref.size(); ++i) ref[i] += static_cast<double>(i % 5);
  for (const auto tier : blas::SupportedGemmTiers()) {
    SCOPED_TRACE(blas::GemmTierName(tier));
    std::vector<double> c(static_cast<size_t>(m * n));
    for (size_t i = 0; i < c.size(); ++i) c[i] = static_cast<double>(i % 5);
    blas::GemmOnTier(tier, a.data(), b.data(), c.data(), m, n, k,
                     /*beta_zero=*/false);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], ref[i], 1e-12 * k) << "at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TailShapes, GemmTailShapeTest,
    ::testing::Combine(::testing::Values(1, 3, 7, 63, 65, 129),
                       ::testing::Values(1, 3, 7, 63, 65, 129),
                       ::testing::Values(1, 3, 7, 63, 65, 129)));

// Shapes one below, at and one above each tier's tile edges (gemm.cc
// Blocking): m straddles mr (6, 8, 12) and mc (24, 32, 66), n straddles nr
// (4, 8, 16, 32), and k straddles kc (256, 512). Pack scratch is pooled and
// rounded up to a size class, so a sanitizer cannot see a pack overread;
// these shapes are the guard.
INSTANTIATE_TEST_SUITE_P(
    TileEdges, GemmTailShapeTest,
    ::testing::Values(
        std::make_tuple(11, 15, 255), std::make_tuple(12, 16, 256),
        std::make_tuple(13, 17, 257), std::make_tuple(5, 31, 511),
        std::make_tuple(6, 32, 512), std::make_tuple(7, 33, 513),
        std::make_tuple(7, 3, 257), std::make_tuple(8, 4, 256),
        std::make_tuple(9, 5, 255), std::make_tuple(23, 7, 513),
        std::make_tuple(24, 8, 512), std::make_tuple(25, 9, 511),
        std::make_tuple(31, 33, 257), std::make_tuple(32, 31, 255),
        std::make_tuple(33, 16, 513), std::make_tuple(65, 17, 511),
        std::make_tuple(66, 15, 256), std::make_tuple(67, 32, 257),
        std::make_tuple(121, 33, 1025)));

class GemvTailShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GemvTailShapeTest, MatchesNaiveBothDtypes) {
  const auto [m, n] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(m * 65537 + n));
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> a(static_cast<size_t>(m * n)),
      x(static_cast<size_t>(n));
  for (auto& v : a) v = dist(rng);
  for (auto& v : x) v = dist(rng);
  std::vector<double> y(static_cast<size_t>(m));
  blas::Gemv(a.data(), x.data(), y.data(), m, n);
  std::vector<float> af(a.begin(), a.end()), xf(x.begin(), x.end()),
      yf(static_cast<size_t>(m));
  blas::Gemv(af.data(), xf.data(), yf.data(), m, n);
  for (int64_t r = 0; r < m; ++r) {
    double ref = 0;
    for (int64_t j = 0; j < n; ++j) {
      ref += a[static_cast<size_t>(r * n + j)] * x[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(y[static_cast<size_t>(r)], ref, 1e-12 * n) << "row " << r;
    EXPECT_NEAR(yf[static_cast<size_t>(r)], ref, 1e-5 * n) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TailShapes, GemvTailShapeTest,
    ::testing::Combine(::testing::Values(1, 3, 7, 63, 65, 129, 1000),
                       ::testing::Values(1, 3, 7, 63, 65, 129, 5000)));

// ---- deterministic parallel reductions ---------------------------------------

TEST(ReductionTest, ParallelSumMatchesChunkCombineBitExact) {
  // The determinism contract: ParallelSum == serial in-order combine of
  // per-chunk ChunkSums, bit for bit, regardless of scheduling.
  const int64_t n = 3 * blas::kReduceChunk + 123;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> x(static_cast<size_t>(n));
  for (auto& v : x) v = dist(rng);
  double manual = 0;
  for (int64_t lo = 0; lo < n; lo += blas::kReduceChunk) {
    manual += blas::ChunkSum(x.data() + lo, std::min(blas::kReduceChunk, n - lo));
  }
  const double got = blas::ParallelSum(x.data(), n);
  EXPECT_EQ(got, manual);
  EXPECT_EQ(blas::ParallelSum(x.data(), n), got);  // run-to-run stable
}

TEST(ReductionTest, ParallelDotMatchesChunkCombineBitExact) {
  const int64_t n = 2 * blas::kReduceChunk + 77;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(-1, 1);
  std::vector<float> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (auto& v : x) v = dist(rng);
  for (auto& v : y) v = dist(rng);
  double manual = 0;
  for (int64_t lo = 0; lo < n; lo += blas::kReduceChunk) {
    manual += blas::ChunkDot(x.data() + lo, y.data() + lo,
                             std::min(blas::kReduceChunk, n - lo));
  }
  EXPECT_EQ(blas::ParallelDot(x.data(), y.data(), n), manual);
}

TEST(ReductionTest, AccurateVsSerialReference) {
  const int64_t n = blas::kReduceChunk * 5 + 1;
  std::vector<double> x(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = std::sin(0.001 * static_cast<double>(i));
  }
  long double ref = 0;
  for (double v : x) ref += v;
  EXPECT_NEAR(blas::ParallelSum(x.data(), n), static_cast<double>(ref),
              1e-9 * static_cast<double>(n));
  // f32 inputs accumulate in f64 (the historical kernel contract).
  std::vector<float> xf(x.begin(), x.end());
  long double reff = 0;
  for (float v : xf) reff += static_cast<double>(v);
  EXPECT_NEAR(blas::ParallelSum(xf.data(), n), static_cast<double>(reff),
              1e-6 * static_cast<double>(n));
}

TEST(ReductionTest, EmptyAndSingleChunk) {
  EXPECT_EQ(blas::ParallelSum(static_cast<const double*>(nullptr), 0), 0.0);
  std::vector<double> x{1.5, -2.5, 4.0};
  EXPECT_DOUBLE_EQ(blas::ParallelSum(x.data(), 3), 3.0);
  EXPECT_DOUBLE_EQ(blas::ParallelDot(x.data(), x.data(), 3),
                   1.5 * 1.5 + 2.5 * 2.5 + 16.0);
}

// ---- FFT properties ---------------------------------------------------------------

using Cplx = std::complex<double>;

std::vector<Cplx> RandomSignal(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {dist(rng), dist(rng)};
  return x;
}

double MaxErr(const std::vector<Cplx>& a, const std::vector<Cplx>& b) {
  double e = 0;
  for (size_t i = 0; i < a.size(); ++i) e = std::max(e, std::abs(a[i] - b[i]));
  return e;
}

class FftSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FftSizeTest, MatchesNaiveDft) {
  const size_t n = GetParam();
  auto x = RandomSignal(n, n);
  EXPECT_LT(MaxErr(fft::Forward(x), fft::NaiveDft(x)), 1e-8 * n);
}

TEST_P(FftSizeTest, InverseRecoversSignal) {
  const size_t n = GetParam();
  auto x = RandomSignal(n, n + 1);
  EXPECT_LT(MaxErr(fft::Inverse(fft::Forward(x)), x), 1e-9 * n);
}

// Mix of powers of two (radix-2 path) and non-powers (Bluestein path).
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024, 3, 5, 12,
                                           100, 257, 1000));

TEST(FftTest, ParsevalHolds) {
  const size_t n = 512;
  auto x = RandomSignal(n, 9);
  auto X = fft::Forward(x);
  double ex = 0, eX = 0;
  for (const auto& v : x) ex += std::norm(v);
  for (const auto& v : X) eX += std::norm(v);
  EXPECT_NEAR(eX, ex * n, 1e-6 * ex * n);
}

TEST(FftTest, LinearityHolds) {
  const size_t n = 128;
  auto x = RandomSignal(n, 1), y = RandomSignal(n, 2);
  std::vector<Cplx> sum(n);
  for (size_t i = 0; i < n; ++i) sum[i] = 2.0 * x[i] + 3.0 * y[i];
  auto X = fft::Forward(x), Y = fft::Forward(y), S = fft::Forward(sum);
  std::vector<Cplx> lin(n);
  for (size_t i = 0; i < n; ++i) lin[i] = 2.0 * X[i] + 3.0 * Y[i];
  EXPECT_LT(MaxErr(S, lin), 1e-9 * n);
}

TEST(FftTest, DeltaTransformsToConstant) {
  std::vector<Cplx> x(64, Cplx(0));
  x[0] = 1;
  auto X = fft::Forward(x);
  for (const auto& v : X) EXPECT_NEAR(std::abs(v - Cplx(1, 0)), 0, 1e-12);
}

class CtMergeTest : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(CtMergeTest, MergeOfSubDftsEqualsFullDft) {
  const auto [s, m] = GetParam();
  const size_t n = s * m;
  auto x = RandomSignal(n, 17 * s + m);
  // Split into s interleaved subsequences, DFT each, merge.
  std::vector<std::vector<Cplx>> sub(s);
  for (size_t k = 0; k < s; ++k) {
    std::vector<Cplx> xk(m);
    for (size_t j = 0; j < m; ++j) xk[j] = x[k + j * s];
    sub[k] = fft::Forward(xk);
  }
  auto merged = fft::CooleyTukeyMerge(sub);
  EXPECT_LT(MaxErr(merged, fft::Forward(x)), 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Splits, CtMergeTest,
                         ::testing::Values(std::make_pair<size_t, size_t>(2, 64),
                                           std::make_pair<size_t, size_t>(4, 32),
                                           std::make_pair<size_t, size_t>(8, 16),
                                           std::make_pair<size_t, size_t>(3, 50),
                                           std::make_pair<size_t, size_t>(16, 8)));

TEST(FftTest, IsPowerOfTwo) {
  EXPECT_TRUE(fft::IsPowerOfTwo(1));
  EXPECT_TRUE(fft::IsPowerOfTwo(1024));
  EXPECT_FALSE(fft::IsPowerOfTwo(0));
  EXPECT_FALSE(fft::IsPowerOfTwo(3));
  EXPECT_FALSE(fft::IsPowerOfTwo(-4));
}

// ---- Kernel-level tests through a local session ------------------------------------

class KernelSessionTest : public ::testing::Test {
 protected:
  LocalRuntime rt_{1};
};

TEST_F(KernelSessionTest, AddVectors) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2, 3}));
  auto b = ops::Const(s, Tensor::FromVector(std::vector<double>{10, 20, 30}));
  auto c = ops::Add(s, a, b);
  auto r = rt_.NewSession()->Run({}, {c.name()});
  ASSERT_TRUE(r.ok());
  auto v = (*r)[0].data<double>();
  EXPECT_EQ(v[0], 11);
  EXPECT_EQ(v[1], 22);
  EXPECT_EQ(v[2], 33);
}

TEST_F(KernelSessionTest, ScalarBroadcastInMul) {
  Scope s = rt_.root_scope();
  auto v = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2, 3}));
  auto k = ops::Const(s, Tensor::Scalar(2.0));
  auto times = ops::Mul(s, k, v);    // scalar * vector
  auto times2 = ops::Mul(s, v, k);   // vector * scalar
  auto r = rt_.NewSession()->Run({}, {times.name(), times2.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].data<double>()[2], 6);
  EXPECT_EQ((*r)[1].data<double>()[2], 6);
}

TEST_F(KernelSessionTest, ShapeMismatchError) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2}));
  auto b = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2, 3}));
  auto c = ops::Add(s, a, b);
  auto r = rt_.NewSession()->Run({}, {c.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
}

TEST_F(KernelSessionTest, DtypeMismatchError) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<double>{1}));
  auto b = ops::Const(s, Tensor::FromVector(std::vector<float>{1}));
  auto c = ops::Add(s, a, b);
  EXPECT_FALSE(rt_.NewSession()->Run({}, {c.name()}).ok());
}

TEST_F(KernelSessionTest, DivideScalars) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::Scalar(10.0));
  auto b = ops::Const(s, Tensor::Scalar(4.0));
  auto c = ops::Div(s, a, b);
  auto r = rt_.NewSession()->Run({}, {c.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 2.5);
}

TEST_F(KernelSessionTest, DotAndReduceSum) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2, 3}));
  auto b = ops::Const(s, Tensor::FromVector(std::vector<double>{4, 5, 6}));
  auto d = ops::Dot(s, a, b);
  auto sum = ops::ReduceSum(s, a);
  auto r = rt_.NewSession()->Run({}, {d.name(), sum.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 32);
  EXPECT_DOUBLE_EQ((*r)[1].scalar<double>(), 6);
}

TEST_F(KernelSessionTest, SqrtAndAxpy) {
  Scope s = rt_.root_scope();
  auto x = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2}));
  auto y = ops::Const(s, Tensor::FromVector(std::vector<double>{10, 20}));
  auto alpha = ops::Const(s, Tensor::Scalar(3.0));
  auto axpy = ops::Axpy(s, alpha, x, y);
  auto root = ops::Sqrt(s, ops::Const(s, Tensor::Scalar(16.0)));
  auto r = rt_.NewSession()->Run({}, {axpy.name(), root.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[0], 13);
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 26);
  EXPECT_DOUBLE_EQ((*r)[1].scalar<double>(), 4);
}

TEST_F(KernelSessionTest, MatMulThroughSession) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(
      s, Tensor::FromVector(Shape{2, 2}, std::vector<float>{1, 2, 3, 4}));
  auto b = ops::Const(
      s, Tensor::FromVector(Shape{2, 2}, std::vector<float>{5, 6, 7, 8}));
  auto c = ops::MatMul(s, a, b);
  auto r = rt_.NewSession()->Run({}, {c.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(((*r)[0].at<float>(0, 0)), 19);
  EXPECT_FLOAT_EQ(((*r)[0].at<float>(1, 1)), 50);
}

TEST_F(KernelSessionTest, MatMulInnerDimMismatch) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor(DType::kF32, Shape{2, 3}));
  auto b = ops::Const(s, Tensor(DType::kF32, Shape{2, 3}));
  auto c = ops::MatMul(s, a, b);
  EXPECT_FALSE(rt_.NewSession()->Run({}, {c.name()}).ok());
}

TEST_F(KernelSessionTest, MatVec) {
  Scope s = rt_.root_scope();
  auto m = ops::Const(
      s, Tensor::FromVector(Shape{2, 3}, std::vector<double>{1, 2, 3, 4, 5, 6}));
  auto v = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 1, 1}));
  auto y = ops::MatVec(s, m, v);
  auto r = rt_.NewSession()->Run({}, {y.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[0], 6);
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 15);
}

TEST_F(KernelSessionTest, FftKernelMatchesImpl) {
  Scope s = rt_.root_scope();
  Tensor sig(DType::kC128, Shape{16});
  FillUniform(sig, 21, -1, 1);
  auto x = ops::Const(s, sig);
  auto y = ops::Fft(s, x);
  auto inv = ops::Fft(s, y, /*inverse=*/true);
  auto r = rt_.NewSession()->Run({}, {y.name(), inv.name()});
  ASSERT_TRUE(r.ok());
  const auto src = sig.data<Cplx>();
  auto ref = fft::Forward(std::vector<Cplx>(src.begin(), src.end()));
  const auto got = (*r)[0].data<Cplx>();
  for (size_t i = 0; i < 16; ++i) EXPECT_LT(std::abs(got[i] - ref[i]), 1e-10);
  const auto back = (*r)[1].data<Cplx>();
  for (size_t i = 0; i < 16; ++i) EXPECT_LT(std::abs(back[i] - src[i]), 1e-12);
}

TEST_F(KernelSessionTest, RandomUniformDeterministicPerSeed) {
  Scope s = rt_.root_scope();
  auto a = ops::RandomUniform(s, Shape{100}, DType::kF32, 42);
  auto b = ops::RandomUniform(s, Shape{100}, DType::kF32, 42);
  auto c = ops::RandomUniform(s, Shape{100}, DType::kF32, 43);
  auto r = rt_.NewSession()->Run({}, {a.name(), b.name(), c.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)[0].BitwiseEquals((*r)[1]));
  EXPECT_FALSE((*r)[0].BitwiseEquals((*r)[2]));
}

// ---- Meta execution (simulation mode) -----------------------------------------------

TEST_F(KernelSessionTest, SimulateProducesMetaWithRealShapes) {
  Scope s = rt_.root_scope();
  auto a = ops::RandomUniform(s, Shape{512, 256}, DType::kF32, 1);
  auto b = ops::RandomUniform(s, Shape{256, 128}, DType::kF32, 2);
  auto c = ops::MatMul(s, a, b);
  RunOptions opts;
  opts.simulate = true;
  auto r = rt_.NewSession()->Run({}, {c.name()}, {}, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)[0].is_meta());
  EXPECT_EQ((*r)[0].shape(), Shape({512, 128}));
}

TEST_F(KernelSessionTest, SimulateStillValidatesShapes) {
  Scope s = rt_.root_scope();
  auto a = ops::RandomUniform(s, Shape{4, 5}, DType::kF32, 1);
  auto b = ops::RandomUniform(s, Shape{4, 5}, DType::kF32, 2);
  auto c = ops::MatMul(s, a, b);
  RunOptions opts;
  opts.simulate = true;
  EXPECT_FALSE(rt_.NewSession()->Run({}, {c.name()}, {}, opts).ok());
}

TEST_F(KernelSessionTest, SimulateHugeProblemNoAllocation) {
  // 65536^2 f32 = 16 GB per tensor: must succeed without touching memory.
  Scope s = rt_.root_scope();
  const int64_t n = 65536;
  auto a = ops::RandomUniform(s, Shape{n, n}, DType::kF32, 1);
  auto b = ops::RandomUniform(s, Shape{n, n}, DType::kF32, 2);
  auto c = ops::MatMul(s, a, b);
  RunOptions opts;
  opts.simulate = true;
  RunMetadata meta;
  opts.trace = true;
  auto r = rt_.NewSession()->Run({}, {c.name()}, {}, opts, &meta);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].bytes(), n * n * 4);
  // The matmul record must carry the nominal 2N^3 flops.
  bool found = false;
  for (const auto& rec : meta.nodes) {
    if (rec.op == "MatMul") {
      found = true;
      EXPECT_NEAR(rec.cost.flops, 2.0 * std::pow(static_cast<double>(n), 3),
                  1e15);
    }
  }
  EXPECT_TRUE(found);
}

// ---- Cost estimates -------------------------------------------------------------------

TEST(KernelCostTest, MatMulFlops) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Meta(DType::kF32, Shape{10, 20}), "a");
  auto b = ops::Const(s, Tensor::Meta(DType::kF32, Shape{20, 30}), "b");
  auto c = ops::MatMul(s, a, b);
  ResourceMgr rm;
  std::vector<Tensor> inputs = {Tensor::Meta(DType::kF32, Shape{10, 20}),
                                Tensor::Meta(DType::kF32, Shape{20, 30})};
  OpKernelContext ctx(c.node, inputs, &rm, true);
  auto kernel = KernelRegistry::Global().Create("MatMul", "cpu");
  ASSERT_TRUE(kernel.ok());
  auto cost = (*kernel)->Cost(ctx);
  EXPECT_DOUBLE_EQ(cost.flops, 2.0 * 10 * 20 * 30);
  EXPECT_EQ(cost.bytes_written, 10 * 30 * 4);
  EXPECT_EQ(cost.bytes_read, (10 * 20 + 20 * 30) * 4);
}

TEST(KernelRegistryTest, LookupSemantics) {
  auto& reg = KernelRegistry::Global();
  EXPECT_TRUE(reg.HasKernel("MatMul", "cpu"));
  EXPECT_TRUE(reg.HasKernel("MatMul", "gpu"));
  EXPECT_FALSE(reg.HasKernel("MatMul", "tpu"));
  EXPECT_FALSE(reg.HasKernel("NotAnOp", "cpu"));
  EXPECT_EQ(reg.Create("NotAnOp", "cpu").status().code(), Code::kNotFound);
}

}  // namespace
}  // namespace tfhpc
