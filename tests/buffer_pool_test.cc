// Tests for the pooled allocator (core/buffer.h), uninitialized allocation,
// and the lifetime of kernel output buffers through the executor's
// move-on-last-use input passing and the fetch boundary.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/buffer.h"
#include "core/tensor.h"
#include "graph/ops.h"
#include "kernels/kernel.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

// ---- BufferPool ------------------------------------------------------------

TEST(BufferPoolTest, AllocationsAreAlignedAndExactlySized) {
  for (size_t size : {1ul, 63ul, 64ul, 65ul, 4096ul, 100000ul}) {
    auto buf = Buffer::Allocate(size);
    ASSERT_NE(buf->data(), nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf->data()) % Buffer::kAlignment,
              0u)
        << size;
    EXPECT_EQ(buf->size(), size);
  }
}

TEST(BufferPoolTest, EverySizeClassIsSimdAligned) {
  // The vectorized kernels require 64-byte-aligned tensor storage. Walk
  // every size class (64 B .. 64 MB) plus the class boundaries and the
  // oversized bypass path, on both allocation paths, fresh and pool-hit.
  BufferPool::Global().Trim();
  std::vector<size_t> sizes;
  for (size_t cls = BufferPool::kMinClassBytes;
       cls <= BufferPool::kMaxPooledBytes; cls <<= 1) {
    sizes.push_back(cls - 1);
    sizes.push_back(cls);
    sizes.push_back(cls + 1);  // spills to the next class (or oversized)
  }
  sizes.push_back(BufferPool::kMaxPooledBytes * 2 + 7);  // oversized bypass
  auto aligned = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % Buffer::kAlignment == 0;
  };
  for (size_t size : sizes) {
    {
      auto fresh = Buffer::Allocate(size, nullptr, ZeroInit::kNo);
      ASSERT_NE(fresh->data(), nullptr) << size;
      EXPECT_TRUE(aligned(fresh->data())) << "Allocate size " << size;
    }
    // The block just freed is now cached (when pooled); the fallible path
    // must hand back an equally aligned block, hit or miss.
    auto r = Buffer::TryAllocate(size, nullptr, ZeroInit::kNo);
    ASSERT_TRUE(r.ok()) << size;
    EXPECT_TRUE(aligned((*r)->data())) << "TryAllocate size " << size;
  }
  BufferPool::Global().Trim();
}

TEST(BufferPoolTest, FreedBlocksAreReusedFromTheSizeClass) {
  BufferPool::Global().Trim();
  AllocatorStats stats;
  void* first = nullptr;
  {
    auto buf = Buffer::Allocate(10000, &stats);
    first = buf->data();
  }
  // The freed block sits on its size-class free list; the next matching
  // allocation must be served from it (same pointer, counted as a hit).
  auto again = Buffer::Allocate(9000, &stats);  // same pow2 class (16K)
  EXPECT_EQ(again->data(), first);
  EXPECT_EQ(stats.allocs(), 2);
  EXPECT_EQ(stats.pool_hits(), 1);
  EXPECT_GE(stats.pool_bytes(), 9000);
}

TEST(BufferPoolTest, ZeroInitZeroesRequestedBytesOfRecycledBlocks) {
  BufferPool::Global().Trim();
  const size_t size = 8192;
  {
    auto dirty = Buffer::Allocate(size, nullptr, ZeroInit::kNo);
    std::memset(dirty->data(), 0xab, size);
  }
  // kYes must scrub the recycled block...
  AllocatorStats stats;
  {
    auto clean = Buffer::Allocate(size, &stats, ZeroInit::kYes);
    ASSERT_EQ(stats.pool_hits(), 1);  // really recycled, not a fresh block
    const auto* p = static_cast<const unsigned char*>(clean->data());
    for (size_t i = 0; i < size; ++i) ASSERT_EQ(p[i], 0u) << i;
    std::memset(clean->data(), 0xcd, size);
  }
  // ...while kNo hands the block back dirty (this is the memset being
  // skipped — the pool is deterministic LIFO, so we see our own bytes).
  auto raw = Buffer::Allocate(size, nullptr, ZeroInit::kNo);
  EXPECT_EQ(static_cast<const unsigned char*>(raw->data())[0], 0xcd);
}

TEST(BufferPoolTest, OversizedAllocationsBypassTheCache) {
  BufferPool::Global().Trim();
  { auto big = Buffer::Allocate(BufferPool::kMaxPooledBytes + 1); }
  EXPECT_EQ(BufferPool::Global().cached_bytes(), 0u);
}

TEST(BufferPoolTest, TrimReleasesEverythingCached) {
  BufferPool::Global().Trim();
  for (size_t size : {1024ul, 2048ul, 65536ul}) {
    auto buf = Buffer::Allocate(size);
  }
  EXPECT_GT(BufferPool::Global().cached_bytes(), 0u);
  EXPECT_GT(BufferPool::Global().Trim(), 0u);
  EXPECT_EQ(BufferPool::Global().cached_bytes(), 0u);
}

TEST(BufferPoolTest, CacheCapBoundsIdleBytes) {
  BufferPool::Global().Trim();
  BufferPool::Global().set_cache_cap(64 * 1024);
  std::vector<std::shared_ptr<Buffer>> bufs;
  for (int i = 0; i < 8; ++i) bufs.push_back(Buffer::Allocate(32 * 1024));
  bufs.clear();  // frees 8 x 32K against a 64K cap
  EXPECT_LE(BufferPool::Global().cached_bytes(), 64u * 1024u);
  BufferPool::Global().set_cache_cap(BufferPool::kDefaultCacheCap);
  BufferPool::Global().Trim();
}

TEST(BufferPoolTest, LiveAndPeakBytesTrackTensorLifetimes) {
  AllocatorStats stats;
  {
    Tensor a(DType::kF64, Shape{100}, &stats);
    EXPECT_EQ(stats.live_bytes(), 800);
    Tensor b = Tensor::Uninitialized(DType::kF64, Shape{50}, &stats);
    EXPECT_EQ(stats.live_bytes(), 1200);
  }
  EXPECT_EQ(stats.live_bytes(), 0);
  EXPECT_EQ(stats.peak_bytes(), 1200);
  EXPECT_EQ(stats.allocs(), 2);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BufferPool::Global().Trim();
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, kIters] {
      AllocatorStats stats;
      for (int i = 0; i < kIters; ++i) {
        const size_t size = 64u << ((t + i) % 8);
        auto buf = Buffer::Allocate(size, &stats,
                                    i % 2 ? ZeroInit::kYes : ZeroInit::kNo);
        static_cast<unsigned char*>(buf->data())[size / 2] = 0x5a;
      }
      EXPECT_EQ(stats.live_bytes(), 0);
      EXPECT_EQ(stats.allocs(), kIters);
    });
  }
  for (auto& th : threads) th.join();
}

// ---- Tensor adoption --------------------------------------------------------

TEST(TensorBufferTest, FromBufferAdoptsWithoutCopy) {
  auto buf = Buffer::Allocate(64 * sizeof(float), nullptr, ZeroInit::kNo);
  auto* src = static_cast<float*>(buf->data());
  for (int i = 0; i < 64; ++i) src[i] = static_cast<float>(i);
  const void* raw = buf->data();
  Tensor t = Tensor::FromBuffer(DType::kF32, Shape{64}, std::move(buf));
  EXPECT_EQ(t.raw_data(), raw);
  EXPECT_FLOAT_EQ(t.data<float>()[63], 63.0f);
}

// ---- Kernel output buffers -------------------------------------------------

TEST(OutputBufferTest, SharedInputGetsAFreshBuffer) {
  Graph g;
  Scope s(&g);
  Tensor ta(DType::kF64, Shape{16});
  for (int i = 0; i < 16; ++i) {
    ta.mutable_data<double>()[i] = static_cast<double>(i * i);
  }
  auto a = ops::Const(s, ta, "a");
  auto y = ops::Sqrt(s, a);
  Tensor keep = ta;  // executor would keep this for another consumer

  std::vector<Tensor> inputs = {ta};
  ResourceMgr rm;
  AllocatorStats stats;
  OpKernelContext ctx(y.node, std::move(inputs), &rm, &stats);
  auto kernel = KernelRegistry::Global().Create("Sqrt", "cpu");
  ASSERT_TRUE(kernel.ok());
  ASSERT_TRUE((*kernel)->Compute(&ctx).ok());

  EXPECT_NE(ctx.outputs()[0].raw_data(), keep.raw_data());
  EXPECT_DOUBLE_EQ(ctx.outputs()[0].data<double>()[9], 9.0);
  EXPECT_DOUBLE_EQ(keep.data<double>()[9], 81.0);  // input unmutated
}

// ---- Executor move-on-last-use ----------------------------------------------

TEST(OutputBufferTest, FetchedOutputsSurviveDownstreamConsumers) {
  // x is both fetched and consumed by Sqrt: the executor must hand Sqrt a
  // shared reference and keep its own for the fetch, which Sqrt's output
  // must never overwrite.
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  Tensor v(DType::kF64, Shape{8});
  for (int i = 0; i < 8; ++i) v.mutable_data<double>()[i] = 4.0;
  auto x = ops::Const(s, v, "x");
  auto y = ops::Sqrt(s, x);
  auto r = rt.NewSession()->Run({}, {x.name(), y.name()});
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[i], 4.0);  // not clobbered
    EXPECT_DOUBLE_EQ((*r)[1].data<double>()[i], 2.0);
  }
}

TEST(OutputBufferTest, FetchedResultsOutliveTheRuntime) {
  // Run results escape to user code that may destroy the runtime (and its
  // devices, whose AllocatorStats the buffers were attributed to) first.
  // The fetch boundary must sever that attribution: stats() is nullptr on
  // everything Run returns, and the tensors stay readable and destructible
  // after the runtime is gone.
  std::vector<Tensor> kept;
  {
    LocalRuntime rt(0);
    Scope s = rt.root_scope();
    Tensor v(DType::kF64, Shape{16});
    for (int i = 0; i < 16; ++i) v.mutable_data<double>()[i] = 9.0;
    auto x = ops::Const(s, v, "x");
    auto y = ops::Sqrt(s, x);
    auto r = rt.NewSession()->Run({}, {x.name(), y.name()});
    ASSERT_TRUE(r.ok());
    for (const Tensor& t : *r) {
      ASSERT_NE(t.buffer(), nullptr);
      EXPECT_EQ(t.buffer()->stats(), nullptr);
    }
    kept = std::move(*r);
  }  // runtime and device allocator stats destroyed here
  EXPECT_DOUBLE_EQ(kept[0].data<double>()[3], 9.0);
  EXPECT_DOUBLE_EQ(kept[1].data<double>()[3], 3.0);
  kept.clear();  // must not write through a dangling AllocatorStats
}

TEST(OutputBufferTest, ChainedElementwiseStepsComputeCorrectly) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  Tensor v(DType::kF64, Shape{32});
  for (int i = 0; i < 32; ++i) v.mutable_data<double>()[i] = 16.0;
  auto x = ops::Const(s, v, "x");
  auto y = ops::Sqrt(s, x);   // arena-planned
  auto z = ops::Sqrt(s, y);   // arena-planned, in place over y
  auto w = ops::Neg(s, z);    // fetched: allocated from the pool
  auto r = rt.NewSession()->Run({}, {w.name()});
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[i], -2.0);
  }
}

}  // namespace
}  // namespace tfhpc
