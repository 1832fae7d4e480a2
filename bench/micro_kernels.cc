// Microbenchmarks of the compute substrate: GEMM, GEMV, FFT, RNG fills,
// the pooled allocator. google-benchmark; real execution. Every benchmark
// whose kernel fans out through ParallelFor times wall clock
// (UseRealTime): google-benchmark would otherwise divide its rates by the
// calling thread's CPU time alone, and never charge the pool threads' work.
// Custom main mirrors the console run into BENCH_microkernels.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/rng.h"
#include "kernels/fft_impl.h"
#include "kernels/gemm.h"
#include "kernels/reduction.h"

namespace tfhpc {
namespace {

void BM_GemmF32(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<float> a(static_cast<size_t>(n * n), 1.0f);
  std::vector<float> b(static_cast<size_t>(n * n), 2.0f);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    blas::Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmF32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->UseRealTime();

void BM_GemmF64(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<double> a(static_cast<size_t>(n * n), 1.0);
  std::vector<double> b(static_cast<size_t>(n * n), 2.0);
  std::vector<double> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    blas::Gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmF64)->Arg(64)->Arg(256)->UseRealTime();

void BM_GemvF64(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<double> a(static_cast<size_t>(n * n), 1.0);
  std::vector<double> x(static_cast<size_t>(n), 1.0);
  std::vector<double> y(static_cast<size_t>(n));
  for (auto _ : state) {
    blas::Gemv(a.data(), x.data(), y.data(), n, n);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemvF64)->Arg(256)->Arg(1024)->UseRealTime();

void BM_DotF64(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<double> a(static_cast<size_t>(n), 1.5);
  std::vector<double> b(static_cast<size_t>(n), -0.5);
  for (auto _ : state) {
    double d = blas::ParallelDot(a.data(), b.data(), n);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * n * 2 *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_DotF64)
    ->Arg(1 << 12)
    ->Arg(1 << 20)
    ->Arg(1 << 24)
    ->UseRealTime();

void BM_DotF32(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<float> a(static_cast<size_t>(n), 1.5f);
  std::vector<float> b(static_cast<size_t>(n), -0.5f);
  for (auto _ : state) {
    double d = blas::ParallelDot(a.data(), b.data(), n);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * n * 2 *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_DotF32)
    ->Arg(1 << 12)
    ->Arg(1 << 20)
    ->Arg(1 << 24)
    ->UseRealTime();

void BM_ReduceSumF64(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<double> x(static_cast<size_t>(n), 0.25);
  for (auto _ : state) {
    double s = blas::ParallelSum(x.data(), n);
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(state.iterations() * n *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_ReduceSumF64)
    ->Arg(1 << 12)
    ->Arg(1 << 20)
    ->Arg(1 << 24)
    ->UseRealTime();

void BM_ReduceSumF32(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<float> x(static_cast<size_t>(n), 0.25f);
  for (auto _ : state) {
    double s = blas::ParallelSum(x.data(), n);
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(state.iterations() * n *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_ReduceSumF32)
    ->Arg(1 << 12)
    ->Arg(1 << 20)
    ->Arg(1 << 24)
    ->UseRealTime();

void BM_FftRadix2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::complex<double>> sig(n, {1.0, -1.0});
  for (auto _ : state) {
    auto out = fft::Forward(sig);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GFlops"] = benchmark::Counter(
      5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_FftRadix2)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_FftBluestein(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::complex<double>> sig(n, {1.0, -1.0});
  for (auto _ : state) {
    auto out = fft::Forward(sig);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(10007);

void BM_CooleyTukeyMerge(benchmark::State& state) {
  const size_t s = static_cast<size_t>(state.range(0));
  const size_t m = 1 << 12;
  std::vector<std::vector<std::complex<double>>> sub(
      s, std::vector<std::complex<double>>(m, {0.5, 0.5}));
  for (auto _ : state) {
    auto out = fft::CooleyTukeyMerge(sub);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CooleyTukeyMerge)->Arg(4)->Arg(16)->Arg(64)->UseRealTime();

void BM_PhiloxFill(benchmark::State& state) {
  Tensor t(DType::kF32, Shape{state.range(0)});
  uint64_t seed = 0;
  for (auto _ : state) {
    FillUniform(t, seed++);
    benchmark::DoNotOptimize(t.raw_data());
  }
  state.SetBytesProcessed(state.iterations() * t.bytes());
}
BENCHMARK(BM_PhiloxFill)->Arg(1 << 12)->Arg(1 << 20)->UseRealTime();

void BM_SpdMatrix(benchmark::State& state) {
  const int64_t n = state.range(0);
  uint64_t seed = 0;
  for (auto _ : state) {
    Tensor t = RandomSpdMatrix(n, seed++);
    benchmark::DoNotOptimize(t.raw_data());
  }
}
BENCHMARK(BM_SpdMatrix)->Arg(128)->Arg(512)->UseRealTime();

// Pooled allocator: steady-state Allocate/free recycles one size class, so
// the pool-hit path (free-list pop, no memset) is what's measured; the
// ZeroInit::kYes variant adds back the memset for comparison.
void BM_PooledAlloc(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  const ZeroInit zero = state.range(1) != 0 ? ZeroInit::kYes : ZeroInit::kNo;
  for (auto _ : state) {
    auto buf = Buffer::Allocate(bytes, nullptr, zero);
    benchmark::DoNotOptimize(buf->data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.counters["pool_hit_rate"] = static_cast<double>(
      BufferPool::Global().total_hits()) /
      static_cast<double>(std::max<int64_t>(
          1, BufferPool::Global().total_acquires()));
}
BENCHMARK(BM_PooledAlloc)
    ->Args({4 << 10, 0})
    ->Args({4 << 10, 1})
    ->Args({4 << 20, 0})
    ->Args({4 << 20, 1});

}  // namespace
}  // namespace tfhpc

// Custom main: identical console output to benchmark_main, plus a JSON
// mirror (injected --benchmark_out, overridable on the command line) for
// diffing runs without re-parsing text tables.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_microkernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) std::printf("results -> BENCH_microkernels.json\n");
  return 0;
}
