// Aligned, reference-counted byte buffers backing tensors, fronted by a
// process-wide pooling allocator (size-class free lists over aligned_alloc,
// in the spirit of TensorFlow's BFC allocator). Buffers can be attributed to
// a device allocator so simulated-GPU devices can account memory capacity the
// way real device allocators do.
//
// Memory pressure is a first-class, recoverable condition here: allocation
// has a fallible Status-returning path (Buffer::TryAllocate) guarded by a
// budget hierarchy (process-wide MemoryLimiter charged by real size-class
// capacity inside the pool, optional per-step MemoryLimiter charged by
// nominal tensor bytes) and a seeded AllocFaultInjector for testing. On
// budget breach or a real aligned_alloc failure the pool is Trim()med once
// and the allocation retried; only then does it fail — cleanly, with
// kResourceExhausted, never a process abort.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/thread_annotations.h"

namespace tfhpc {

// Whether a fresh allocation must be zero-filled. Kernels whose outputs are
// fully overwritten (gemm, FFT, elementwise) and recv/restore staging paths
// pass kNo to skip the memset.
enum class ZeroInit { kYes, kNo };

// Tracks live bytes for one device; SimGpuDevice installs one of these to
// enforce the paper's per-GPU memory limits (e.g. 1 GB on a K420). Also
// counts allocator traffic: total allocations, how many were satisfied from
// the pool's free lists, and how many allocations *failed* (budget breach,
// injected fault, or real OOM) — failures surface as kResourceExhausted
// steps, so the counter is the device-level view of memory pressure.
class AllocatorStats {
 public:
  void Add(int64_t bytes) {
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    int64_t cur = live_bytes_.load(std::memory_order_relaxed);
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (cur > peak &&
           !peak_bytes_.compare_exchange_weak(peak, cur,
                                              std::memory_order_relaxed)) {
    }
  }
  void Sub(int64_t bytes) {
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  void RecordAlloc(bool pool_hit, int64_t bytes) {
    allocs_.fetch_add(1, std::memory_order_relaxed);
    if (pool_hit) {
      pool_hits_.fetch_add(1, std::memory_order_relaxed);
      pool_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
  }
  // An allocation that failed after the trim-and-retry dance.
  void RecordFailed() { failed_.fetch_add(1, std::memory_order_relaxed); }

  int64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t allocs() const { return allocs_.load(std::memory_order_relaxed); }
  int64_t pool_hits() const {
    return pool_hits_.load(std::memory_order_relaxed);
  }
  // Total bytes (size-class capacity) served from pooled free lists.
  int64_t pool_bytes() const {
    return pool_bytes_.load(std::memory_order_relaxed);
  }
  int64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> allocs_{0};
  std::atomic<int64_t> pool_hits_{0};
  std::atomic<int64_t> pool_bytes_{0};
  std::atomic<int64_t> failed_{0};
};

// A byte budget with reservation/release accounting and a high-water mark.
// Two tiers exist:
//   - MemoryLimiter::Process(): one per process, charged by *size-class
//     capacity* inside BufferPool (OS-acquired bytes, including idle cached
//     blocks — trimming the pool genuinely frees budget). Unlimited until
//     set_limit() is called. A breach here is pool pressure: transient,
//     retryable after backoff.
//   - per-step limiters (RunOptions::step_memory_limit_bytes), charged by
//     nominal tensor bytes at Buffer level. A breach is the step exceeding
//     its own budget: permanent — retrying the identical step cannot help.
// limit <= 0 means unlimited (accounting still runs).
class MemoryLimiter {
 public:
  explicit MemoryLimiter(int64_t limit_bytes = 0, std::string scope = "memory")
      : scope_(std::move(scope)), limit_(limit_bytes) {}

  // Reserves `bytes` against the budget; kResourceExhausted on breach
  // (nothing reserved in that case). The failed() counter ticks per breach.
  Status Reserve(int64_t bytes);
  // Returns previously reserved bytes to the budget.
  void Release(int64_t bytes);

  void set_limit(int64_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  // High-water mark of used() since construction / ResetPeak().
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  void ResetPeak() {
    peak_.store(used_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }
  const std::string& scope() const { return scope_; }

  // The process-wide budget every BufferPool OS acquisition is charged to.
  static MemoryLimiter& Process();

 private:
  std::string scope_;
  std::atomic<int64_t> limit_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> failed_{0};
};

// A deterministic allocator fault schedule (mirrors the PR 1 chaos-transport
// design): which fallible allocations fail, decided from seeded state — no
// wall clock, no global randomness. All schedules apply only to allocations
// inside [min_bytes, max_bytes] (the "size class" filter); an allocation
// fails when ANY armed schedule selects it.
struct AllocFaultSpec {
  // Fail every Nth eligible allocation (the Nth, 2Nth, ...). 0 = off.
  uint64_t every_nth = 0;
  // Fail eligible allocations once cumulative eligible bytes exceed this.
  // < 0 = off.
  int64_t after_bytes = -1;
  // Fail each eligible allocation independently with this probability,
  // drawn from Philox(seed)(allocation index). 0 = off.
  double probability = 0.0;
  uint64_t seed = 1;
  // Only allocations in [min_bytes, max_bytes] are eligible.
  size_t min_bytes = 0;
  size_t max_bytes = std::numeric_limits<size_t>::max();
  // Stop injecting after this many failures. < 0 = unlimited.
  int64_t max_failures = -1;

  bool enabled() const {
    return every_nth > 0 || after_bytes >= 0 || probability > 0.0;
  }
};

// Process-wide injector consulted by Buffer::TryAllocate (the fallible path
// only — legacy CHECK-on-failure callers are never injected, so injection
// can only produce clean kResourceExhausted failures, never an abort).
// Injected failures model pool pressure: they participate in the same
// trim-once-and-retry loop as real aligned_alloc failures.
class AllocFaultInjector {
 public:
  static AllocFaultInjector& Global();

  // Arms the injector with `spec` and resets schedule counters. A spec with
  // no schedule enabled disarms.
  void Install(const AllocFaultSpec& spec);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Called once per fallible allocation attempt; true = fail this attempt.
  bool ShouldFail(size_t bytes);

  // Attempts examined / failures injected since the last Install.
  int64_t considered() const {
    return considered_.load(std::memory_order_relaxed);
  }
  int64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> considered_{0};
  std::atomic<int64_t> injected_{0};
  Mutex mu_;
  AllocFaultSpec spec_ TFHPC_GUARDED_BY(mu_);
  // Eligible allocations seen / cumulative eligible bytes / injected count.
  uint64_t eligible_count_ TFHPC_GUARDED_BY(mu_) = 0;
  int64_t eligible_bytes_ TFHPC_GUARDED_BY(mu_) = 0;
  int64_t failures_ TFHPC_GUARDED_BY(mu_) = 0;
};

// Process-wide size-class pool in front of aligned_alloc. Freed blocks up to
// kMaxPooledBytes are cached on power-of-two free lists and handed back on
// the next matching Acquire; larger blocks bypass the pool entirely. Cached
// (idle) bytes are bounded by a cap so the pool cannot hoard memory — beyond
// the cap, Release frees to the OS. Cached blocks are *not* attributed to any
// device's AllocatorStats: device live_bytes tracks tensors actually alive,
// so SimGpu capacity limits bind exactly as before pooling. The process
// MemoryLimiter, by contrast, is charged for every byte acquired from the OS
// — cached blocks included — so its used() is the pool's true footprint and
// Trim() genuinely returns budget.
class BufferPool {
 public:
  static constexpr size_t kMinClassBytes = 64;          // one cache line
  static constexpr size_t kMaxPooledBytes = 64 << 20;   // 64 MB
  static constexpr size_t kDefaultCacheCap = 256 << 20; // idle bytes bound

  static BufferPool& Global();

  // Fallible acquire: an aligned block of at least `size` bytes and its
  // actual capacity (the size class). pool_hit reports whether it came from
  // a free list (no OS allocation, no implicit zeroing, no new budget
  // charge). Fails with kResourceExhausted when the process MemoryLimiter
  // refuses the capacity or aligned_alloc itself returns null; the caller
  // owns the trim-and-retry policy.
  Status TryAcquire(size_t size, void** out, size_t* capacity, bool* pool_hit);

  // Legacy infallible acquire: crashes the process on failure. Kept for
  // callers outside any step (startup constants, test scaffolding); all
  // step-execution paths go through TryAcquire via Buffer::TryAllocate.
  void* Acquire(size_t size, size_t* capacity, bool* pool_hit);

  // Returns a block of `capacity` bytes (as reported by Acquire) to the
  // pool, or to the OS when the class is full / the cache cap is reached.
  void Release(void* ptr, size_t capacity);

  // Frees every cached block. Returns the number of bytes released.
  size_t Trim();

  void set_cache_cap(size_t bytes);
  size_t cached_bytes() const {
    return cached_bytes_.load(std::memory_order_relaxed);
  }
  int64_t total_acquires() const {
    return total_acquires_.load(std::memory_order_relaxed);
  }
  int64_t total_hits() const {
    return total_hits_.load(std::memory_order_relaxed);
  }

 private:
  BufferPool();

  static size_t ClassIndex(size_t size);

  Mutex mu_;
  // Cached blocks by class index.
  std::vector<std::vector<void*>> free_lists_ TFHPC_GUARDED_BY(mu_);
  size_t cache_cap_ TFHPC_GUARDED_BY(mu_) = kDefaultCacheCap;
  std::atomic<size_t> cached_bytes_{0};
  std::atomic<int64_t> total_acquires_{0};
  std::atomic<int64_t> total_hits_{0};
};

// A contiguous 64-byte-aligned allocation. Never resized after creation.
// Storage is drawn from the global BufferPool and returned to it on
// destruction.
class Buffer {
 public:
  static constexpr size_t kAlignment = 64;

  // Fallible allocation of `size` bytes — the step-execution path. Order of
  // charging: the per-step limiter (when given) is reserved by nominal
  // `size` first; then the pool acquires capacity under the process
  // limiter, with fault injection and one Trim()-and-retry on failure.
  // Failure taxonomy:
  //   - per-step budget breach  -> permanent kResourceExhausted
  //   - pool pressure (process budget, injected fault, real aligned_alloc
  //     failure)               -> transient kResourceExhausted
  //     (see IsTransientResourceExhausted in core/status.h)
  // The returned buffer holds the step limiter reservation until it is
  // destroyed, so fetched tensors that outlive the step release correctly.
  static Result<std::shared_ptr<Buffer>> TryAllocate(
      size_t size, AllocatorStats* stats = nullptr,
      ZeroInit zero = ZeroInit::kYes,
      std::shared_ptr<MemoryLimiter> step_limiter = nullptr);

  // Infallible allocation: crashes on failure, never consults the fault
  // injector. For callers with no step to unwind (graph constants, wire
  // staging outside a step, tests).
  static std::shared_ptr<Buffer> Allocate(size_t size,
                                          AllocatorStats* stats = nullptr,
                                          ZeroInit zero = ZeroInit::kYes);

  // A view of [offset, offset + size) inside `base`. Views own no storage:
  // the base buffer is retained for the view's lifetime and nothing is
  // released, accounted, or returned to the pool when the view dies — the
  // base already carries the stats/limiter charges for all its bytes. The
  // executor's memory-planned arena carves per-tensor views out of one
  // per-step allocation this way. `offset` must be kAlignment-aligned so
  // the SIMD kernels' alignment invariant holds through views.
  static std::shared_ptr<Buffer> CreateView(std::shared_ptr<Buffer> base,
                                            size_t offset, size_t size);

  ~Buffer();
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  void* data() { return data_; }
  const void* data() const { return data_; }
  size_t size() const { return size_; }
  AllocatorStats* stats() const { return stats_; }

  // Removes the device attribution (live-byte accounting) from this buffer.
  // A device's AllocatorStats lives only as long as the device: any buffer
  // handed across a user-facing boundary (Session::Run fetches, RPC client
  // results) must be detached first or its destructor writes through a
  // dangling stats pointer once the runtime is gone. The step-limiter
  // reservation (shared_ptr, safe to outlive the step) is NOT detached: the
  // memory is still held, so the budget stays charged until destruction.
  void DetachStats() {
    if (stats_ != nullptr) {
      stats_->Sub(static_cast<int64_t>(size_));
      stats_ = nullptr;
    }
  }

 private:
  Buffer(void* data, size_t size, size_t capacity, AllocatorStats* stats,
         std::shared_ptr<MemoryLimiter> step_limiter)
      : data_(data),
        size_(size),
        capacity_(capacity),
        stats_(stats),
        step_limiter_(std::move(step_limiter)) {}

  void* data_;
  size_t size_;
  size_t capacity_;  // size-class capacity handed back to the pool
  AllocatorStats* stats_;
  std::shared_ptr<MemoryLimiter> step_limiter_;  // holds `size_` reserved
  std::shared_ptr<Buffer> parent_;  // set only on views (CreateView)
};

// SIMD-safety invariants the vectorized kernels rely on: every tensor buffer
// (pooled class, oversized bypass, either allocation path) is 64-byte
// aligned. aligned_alloc requires size % alignment == 0, which holds because
// size classes are powers of two >= kMinClassBytes and the oversized path
// rounds up to a kAlignment multiple — these asserts pin the constants that
// proof depends on.
static_assert((Buffer::kAlignment & (Buffer::kAlignment - 1)) == 0,
              "Buffer alignment must be a power of two");
static_assert(Buffer::kAlignment >= alignof(std::max_align_t),
              "Buffer alignment must satisfy every scalar dtype");
static_assert(BufferPool::kMinClassBytes % Buffer::kAlignment == 0,
              "smallest size class must be an alignment multiple");
static_assert((BufferPool::kMinClassBytes &
               (BufferPool::kMinClassBytes - 1)) == 0,
              "size classes grow by doubling from a power of two");
static_assert(BufferPool::kMaxPooledBytes % Buffer::kAlignment == 0,
              "largest size class must be an alignment multiple");

}  // namespace tfhpc
