// A fixed-size work-stealing-free thread pool with a shared queue, plus a
// blocking ParallelFor used by the CPU kernels (GEMM, FFT, elementwise).
// Follows CppCoreGuidelines CP rules: joins all threads in the destructor,
// never detaches, and owns all synchronisation internally.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tfhpc {

class ThreadPool {
 public:
  // num_threads <= 0 means hardware_concurrency.
  explicit ThreadPool(int num_threads = 0, std::string name = "pool");
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Enqueue fn for asynchronous execution.
  void Schedule(std::function<void()> fn);

  // Runs fn(begin, end) over [0, total) split into chunks of at least
  // `grain` iterations; blocks until all chunks finish. Safe to call from
  // any thread, including pool workers: chunks are claimed from a shared
  // counter by pool helpers *and* the caller, so the caller always makes
  // progress (never parking on foreign queue entries — deadlock-free) and a
  // kernel running on a pool thread still fans out to idle workers.
  void ParallelFor(int64_t total, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  // Process-wide pool for kernel-internal parallelism.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::string name_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

// Bulk passes over a byte range (RPC payload copies and checksums, the
// variable sum) run in fixed chunks of kBulkChunkBytes, the last one short.
// A pass of at least kBulkPoolMinBytes (two whole chunks) spreads its chunks
// over ThreadPool::Global(); a smaller one runs them in order on the calling
// thread and schedules no pool task, so it never queues behind other work.
// The chunk boundaries never depend on the thread count. The chunk is also
// the unit of wire::PayloadChecksum, so changing it changes the checksum.
inline constexpr size_t kBulkChunkBytes = size_t{1} << 20;
inline constexpr size_t kBulkPoolMinBytes = 2 * kBulkChunkBytes;

// Calls fn(begin, end) once for each chunk [begin, end) of [0, bytes).
template <typename Fn>
void ForEachBulkChunk(size_t bytes, Fn&& fn) {
  const size_t chunks = (bytes + kBulkChunkBytes - 1) / kBulkChunkBytes;
  auto run = [&](int64_t c0, int64_t c1) {
    for (size_t c = static_cast<size_t>(c0); c < static_cast<size_t>(c1);
         ++c) {
      fn(c * kBulkChunkBytes, std::min(bytes, (c + 1) * kBulkChunkBytes));
    }
  };
  if (bytes < kBulkPoolMinBytes) {
    run(0, static_cast<int64_t>(chunks));
  } else {
    ThreadPool::Global().ParallelFor(static_cast<int64_t>(chunks), 1, run);
  }
}

}  // namespace tfhpc
