// Microbenchmarks of the runtime and distributed substrate: session step
// dispatch, graph passes, queues, protobuf-wire serialization, npy codec and
// tile loads, transport round trips.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>

#include "core/rng.h"
#include "distrib/client.h"
#include "graph/ops.h"
#include "graph/passes.h"
#include "io/npy.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

void BM_SessionStepScalarAdd(benchmark::State& state) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto y = ops::Add(s, x, ops::Const(s, Tensor::Scalar(1.0)));
  auto sess = rt.NewSession();
  Tensor feed = Tensor::Scalar(0.0);
  for (auto _ : state) {
    auto r = sess->Run({{"x", feed}}, {y.name()});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_SessionStepScalarAdd);

void BM_SessionStepMatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto a = ops::Placeholder(s, DType::kF32, Shape{n, n}, "a");
  auto b = ops::Placeholder(s, DType::kF32, Shape{n, n}, "b");
  auto c = ops::MatMul(s, a, b);
  auto sess = rt.NewSession();
  Tensor ta(DType::kF32, Shape{n, n});
  Tensor tb(DType::kF32, Shape{n, n});
  for (auto _ : state) {
    auto r = sess->Run({{"a", ta}, {"b", tb}}, {c.name()});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_SessionStepMatMul)->Arg(16)->Arg(128);

void BM_GraphConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Graph g;
    Scope s(&g);
    Output prev = ops::Const(s, Tensor::Scalar(1.0));
    for (int i = 0; i < n; ++i) prev = ops::Add(s, prev, prev);
    benchmark::DoNotOptimize(g.num_nodes());
  }
}
BENCHMARK(BM_GraphConstruction)->Arg(100)->Arg(1000);

void BM_CsePass(benchmark::State& state) {
  Graph g;
  Scope s(&g);
  auto c = ops::Const(s, Tensor::Scalar(1.0));
  for (int i = 0; i < 200; ++i) ops::Add(s, c, c);  // 200 duplicates
  const wire::GraphDef def = g.ToGraphDef();
  for (auto _ : state) {
    auto out = CommonSubexpressionElimination(def, /*keep=*/{});
    benchmark::DoNotOptimize(out.ok());
  }
}
BENCHMARK(BM_CsePass);

void BM_GraphDefSerialize(benchmark::State& state) {
  Graph g;
  Scope s(&g);
  Output prev = ops::Const(s, Tensor::Scalar(1.0));
  for (int i = 0; i < 500; ++i) prev = ops::Add(s, prev, prev);
  for (auto _ : state) {
    const std::string bytes = g.ToGraphDef().Serialize();
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_GraphDefSerialize);

void BM_TensorProtoRoundTrip(benchmark::State& state) {
  Tensor t(DType::kF32, Shape{state.range(0)});
  for (auto _ : state) {
    auto r = wire::ParseTensor(wire::SerializeTensor(t));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(state.iterations() * t.bytes());
}
BENCHMARK(BM_TensorProtoRoundTrip)->Arg(1 << 10)->Arg(1 << 18);

void BM_NpyRoundTrip(benchmark::State& state) {
  Tensor t(DType::kF64, Shape{state.range(0)});
  for (auto _ : state) {
    auto r = io::DecodeNpy(io::EncodeNpy(t));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(state.iterations() * t.bytes());
}
BENCHMARK(BM_NpyRoundTrip)->Arg(1 << 10)->Arg(1 << 16);

// A tile load: one .npy file of range(0) f32 content bytes.
void BM_LoadNpy(benchmark::State& state) {
  Tensor t(DType::kF32, Shape{state.range(0) / 4});
  FillUniform(t, 2);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tfhpc_bm_load_" + std::to_string(::getpid()) + ".npy"))
          .string();
  if (!io::SaveNpy(path, t).ok()) {
    state.SkipWithError("SaveNpy failed");
    return;
  }
  for (auto _ : state) {
    auto r = io::LoadNpy(path);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(state.iterations() * t.bytes());
  std::filesystem::remove(path);
}
BENCHMARK(BM_LoadNpy)->Arg(1 << 20)->Arg(16 << 20);

void BM_QueueThroughput(benchmark::State& state) {
  FIFOQueue q("bench");
  Tensor t(DType::kF64, Shape{64});
  for (auto _ : state) {
    (void)q.Enqueue(t);
    auto r = q.Dequeue();
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_QueueThroughput);

void BM_TransportRoundTrip(benchmark::State& state) {
  distrib::InProcessRouter router;
  (void)router.Register("bench:1", [](const wire::RpcEnvelope& req) {
    wire::RpcEnvelope resp;
    resp.method = req.method;
    resp.payload = req.payload;
    return resp;
  });
  const auto proto = static_cast<distrib::WireProtocol>(state.range(0));
  wire::RpcEnvelope req;
  req.method = "Echo";
  req.payload = std::string(1 << 16, 'x');
  for (auto _ : state) {
    auto r = router.Call("bench:1", proto, req);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(state.iterations() * (1 << 16));
  state.SetLabel(distrib::WireProtocolName(proto));
}
BENCHMARK(BM_TransportRoundTrip)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace tfhpc
