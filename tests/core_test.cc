// Unit tests for src/core: status, dtype, shape, buffer, tensor, threadpool,
// rng.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

#include "core/buffer.h"
#include "core/rng.h"
#include "core/shape.h"
#include "core/status.h"
#include "core/tensor.h"
#include "core/threadpool.h"

namespace tfhpc {
namespace {

// ---- Status ----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad shape");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(NotFound("x").code(), Code::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), Code::kAlreadyExists);
  EXPECT_EQ(FailedPrecondition("x").code(), Code::kFailedPrecondition);
  EXPECT_EQ(OutOfRange("x").code(), Code::kOutOfRange);
  EXPECT_EQ(Unimplemented("x").code(), Code::kUnimplemented);
  EXPECT_EQ(Internal("x").code(), Code::kInternal);
  EXPECT_EQ(ResourceExhausted("x").code(), Code::kResourceExhausted);
  EXPECT_EQ(Cancelled("x").code(), Code::kCancelled);
  EXPECT_EQ(DeadlineExceeded("x").code(), Code::kDeadlineExceeded);
  EXPECT_EQ(Unavailable("x").code(), Code::kUnavailable);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}
Status UseHalf(int x, int* out) {
  TFHPC_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalf(7, &out).code(), Code::kInvalidArgument);
}

// ---- DType -------------------------------------------------------------------

TEST(DTypeTest, SizesMatchCTypes) {
  EXPECT_EQ(DTypeSize(DType::kF32), sizeof(float));
  EXPECT_EQ(DTypeSize(DType::kF64), sizeof(double));
  EXPECT_EQ(DTypeSize(DType::kC128), sizeof(std::complex<double>));
  EXPECT_EQ(DTypeSize(DType::kI64), sizeof(int64_t));
  EXPECT_EQ(DTypeSize(DType::kU8), 1u);
}

TEST(DTypeTest, NameRoundTrip) {
  for (DType d : {DType::kF32, DType::kF64, DType::kC64, DType::kC128,
                  DType::kI32, DType::kI64, DType::kU8, DType::kBool}) {
    EXPECT_EQ(DTypeFromName(DTypeName(d)), d);
  }
  EXPECT_EQ(DTypeFromName("nonsense"), DType::kInvalid);
}

TEST(DTypeTest, Predicates) {
  EXPECT_TRUE(IsFloating(DType::kF32));
  EXPECT_TRUE(IsFloating(DType::kC128));
  EXPECT_FALSE(IsFloating(DType::kI32));
  EXPECT_TRUE(IsComplex(DType::kC64));
  EXPECT_FALSE(IsComplex(DType::kF64));
}

// ---- Shape -------------------------------------------------------------------

TEST(ShapeTest, ScalarBasics) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_TRUE(s.IsScalar());
  EXPECT_EQ(s.num_elements(), 1);
  EXPECT_EQ(s.ToString(), "[]");
}

TEST(ShapeTest, MatrixBasics) {
  Shape s{3, 4};
  EXPECT_EQ(s.rank(), 2);
  EXPECT_TRUE(s.IsMatrix());
  EXPECT_EQ(s.num_elements(), 12);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_EQ(s.dim(1), 4);
  EXPECT_EQ(s.ToString(), "[3,4]");
}

TEST(ShapeTest, ZeroDimGivesZeroElements) {
  Shape s{0, 5};
  EXPECT_EQ(s.num_elements(), 0);
}

TEST(ShapeTest, StridesAreRowMajor) {
  Shape s{2, 3, 4};
  auto strides = s.Strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, BroadcastEqualShapes) {
  auto r = Shape::Broadcast(Shape{2, 3}, Shape{2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Shape({2, 3}));
}

TEST(ShapeTest, BroadcastScalar) {
  auto r = Shape::Broadcast(Shape{2, 3}, Shape{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Shape({2, 3}));
}

TEST(ShapeTest, BroadcastOnes) {
  auto r = Shape::Broadcast(Shape{4, 1}, Shape{1, 5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Shape({4, 5}));
}

TEST(ShapeTest, BroadcastRankExtension) {
  auto r = Shape::Broadcast(Shape{5}, Shape{3, 5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Shape({3, 5}));
}

TEST(ShapeTest, BroadcastIncompatible) {
  auto r = Shape::Broadcast(Shape{2, 3}, Shape{2, 4});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
}

// ---- Buffer -------------------------------------------------------------------

TEST(BufferTest, AlignedAndZeroed) {
  auto b = Buffer::Allocate(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b->data()) % Buffer::kAlignment, 0u);
  EXPECT_EQ(b->size(), 1000u);
  const auto* p = static_cast<const uint8_t*>(b->data());
  for (size_t i = 0; i < 1000; ++i) EXPECT_EQ(p[i], 0);
}

TEST(BufferTest, StatsTrackLiveAndPeak) {
  AllocatorStats stats;
  {
    auto a = Buffer::Allocate(100, &stats);
    EXPECT_EQ(stats.live_bytes(), 100);
    {
      auto b = Buffer::Allocate(200, &stats);
      EXPECT_EQ(stats.live_bytes(), 300);
      EXPECT_EQ(stats.peak_bytes(), 300);
    }
    EXPECT_EQ(stats.live_bytes(), 100);
  }
  EXPECT_EQ(stats.live_bytes(), 0);
  EXPECT_EQ(stats.peak_bytes(), 300);
}

TEST(BufferTest, ZeroSizeAllocation) {
  auto b = Buffer::Allocate(0);
  EXPECT_EQ(b->size(), 0u);
}

// ---- Tensor -------------------------------------------------------------------

TEST(TensorTest, DefaultIsInvalid) {
  Tensor t;
  EXPECT_FALSE(t.valid());
}

TEST(TensorTest, AllocatesZeroed) {
  Tensor t(DType::kF64, Shape{2, 2});
  for (double v : t.data<double>()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(t.bytes(), 32);
}

TEST(TensorTest, ScalarFactory) {
  Tensor t = Tensor::Scalar(3.5);
  EXPECT_TRUE(t.shape().IsScalar());
  EXPECT_EQ(t.scalar<double>(), 3.5);
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector(Shape{2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  EXPECT_EQ((t.at<float>(0, 0)), 1.0f);
  EXPECT_EQ((t.at<float>(1, 2)), 6.0f);
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3});
  Tensor shallow = t;
  Tensor deep = t.Clone();
  t.mutable_data<float>()[0] = 99;
  EXPECT_EQ(shallow.data<float>()[0], 99.0f);
  EXPECT_EQ(deep.data<float>()[0], 1.0f);
}

TEST(TensorTest, BitwiseEquals) {
  Tensor a = Tensor::FromVector(std::vector<double>{1, 2});
  Tensor b = Tensor::FromVector(std::vector<double>{1, 2});
  Tensor c = Tensor::FromVector(std::vector<double>{1, 3});
  EXPECT_TRUE(a.BitwiseEquals(b));
  EXPECT_FALSE(a.BitwiseEquals(c));
  EXPECT_FALSE(a.BitwiseEquals(Tensor::FromVector(std::vector<float>{1, 2})));
}

TEST(TensorTest, ReshapeSharesBuffer) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3, 4});
  auto r = t.Reshape(Shape{2, 2});
  ASSERT_TRUE(r.ok());
  r->mutable_data<float>()[0] = 7;
  EXPECT_EQ(t.data<float>()[0], 7.0f);
  EXPECT_FALSE(t.Reshape(Shape{3}).ok());
}

TEST(TensorTest, AllocatorStatsHookedUp) {
  AllocatorStats stats;
  {
    Tensor t(DType::kF32, Shape{10}, &stats);
    EXPECT_EQ(stats.live_bytes(), 40);
  }
  EXPECT_EQ(stats.live_bytes(), 0);
}

// ---- ThreadPool -----------------------------------------------------------------

TEST(ThreadPoolTest, RunsScheduledWork) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&] {
      if (count.fetch_add(1) == 99) {
        std::lock_guard<std::mutex> lk(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Nested call from a pool thread: the caller drains its own chunks,
      // so this completes even with every worker busy in the outer loop.
      pool.ParallelFor(10, 1,
                       [&](int64_t nb, int64_t ne) { total += ne - nb; });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, ParallelForFromPoolThreadUsesMultipleWorkers) {
  // Regression: ParallelFor used to run fully inline when called from a pool
  // thread — and the node-parallel executor runs every kernel on
  // ThreadPool::Global(), so kernel-internal loops were silently
  // single-threaded. A kernel-like task scheduled onto the pool must still
  // fan its ParallelFor out to other workers.
  ThreadPool pool(4);
  std::set<std::thread::id> workers;
  for (int attempt = 0; attempt < 5 && workers.size() < 2; ++attempt) {
    workers.clear();
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    pool.Schedule([&] {
      pool.ParallelFor(16, 1, [&](int64_t, int64_t) {
        {
          std::lock_guard<std::mutex> lk(mu);
          workers.insert(std::this_thread::get_id());
        }
        // Hold each chunk long enough for idle workers to claim others.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
      std::lock_guard<std::mutex> lk(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
  }
  EXPECT_GT(workers.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForRespectsGrain) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<int64_t> sizes;
  pool.ParallelFor(100, 50, [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lk(mu);
    sizes.push_back(e - b);
  });
  int64_t sum = std::accumulate(sizes.begin(), sizes.end(), int64_t{0});
  EXPECT_EQ(sum, 100);
  for (int64_t s : sizes) EXPECT_GE(s, 50);
}

// ---- RNG -----------------------------------------------------------------------

TEST(PhiloxTest, DeterministicForSameKeyAndCounter) {
  Philox a(123), b(123);
  auto x = a(7), y = b(7);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(x.v[i], y.v[i]);
}

TEST(PhiloxTest, DifferentKeysDiffer) {
  Philox a(123), b(124);
  auto x = a(7), y = b(7);
  bool all_equal = true;
  for (int i = 0; i < 4; ++i) all_equal &= (x.v[i] == y.v[i]);
  EXPECT_FALSE(all_equal);
}

TEST(PhiloxTest, DifferentCountersDiffer) {
  Philox a(123);
  auto x = a(7), y = a(8);
  bool all_equal = true;
  for (int i = 0; i < 4; ++i) all_equal &= (x.v[i] == y.v[i]);
  EXPECT_FALSE(all_equal);
}

TEST(RngTest, UniformFloatInRange) {
  Philox rng(42);
  for (uint64_t c = 0; c < 1000; ++c) {
    auto blk = rng(c);
    for (uint32_t w : blk.v) {
      float f = UniformFloat(w);
      EXPECT_GE(f, 0.0f);
      EXPECT_LT(f, 1.0f);
    }
  }
}

TEST(RngTest, FillUniformDeterministicAndBounded) {
  Tensor a(DType::kF32, Shape{1000});
  Tensor b(DType::kF32, Shape{1000});
  FillUniform(a, 7, -2.0, 3.0);
  FillUniform(b, 7, -2.0, 3.0);
  EXPECT_TRUE(a.BitwiseEquals(b));
  for (float v : a.data<float>()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(RngTest, FillUniformSeedSensitive) {
  Tensor a(DType::kF32, Shape{100});
  Tensor b(DType::kF32, Shape{100});
  FillUniform(a, 1);
  FillUniform(b, 2);
  EXPECT_FALSE(a.BitwiseEquals(b));
}

TEST(RngTest, FillUniformF64MeanNearHalf) {
  Tensor t(DType::kF64, Shape{100000});
  FillUniform(t, 99);
  double sum = 0;
  for (double v : t.data<double>()) sum += v;
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, FillUniformComplex) {
  Tensor t(DType::kC128, Shape{100});
  FillUniform(t, 5, -1.0, 1.0);
  for (auto z : t.data<std::complex<double>>()) {
    EXPECT_GE(z.real(), -1.0);
    EXPECT_LT(z.real(), 1.0);
    EXPECT_GE(z.imag(), -1.0);
    EXPECT_LT(z.imag(), 1.0);
  }
}

TEST(RngTest, SpdMatrixIsSymmetricAndDiagonallyDominant) {
  const int64_t n = 32;
  Tensor a = RandomSpdMatrix(n, 3);
  for (int64_t r = 0; r < n; ++r) {
    double off = 0;
    for (int64_t c = 0; c < n; ++c) {
      EXPECT_DOUBLE_EQ((a.at<double>(r, c)), (a.at<double>(c, r)));
      if (r != c) off += std::abs(a.at<double>(r, c));
    }
    EXPECT_GT(a.at<double>(r, r), off / n);  // strong diagonal
  }
}

}  // namespace
}  // namespace tfhpc
