// Microbenchmarks of the distributed layer: remote step dispatch, variable
// pushes (the STREAM primitive), the payload checksum, queue RPCs, barrier
// rounds, ring allreduce, and distributed-session steps — the
// real-framework overheads the machine model's step_overhead_s abstracts.
// Benchmarks whose passes fan out to the thread pool time wall clock
// (UseRealTime): the rates would otherwise be divided by the calling
// thread's CPU time alone.
#include <benchmark/benchmark.h>

#include <thread>

#include "apps/allreduce.h"
#include "core/rng.h"
#include "distrib/barrier.h"
#include "distrib/dist_session.h"
#include "distrib/server.h"
#include "graph/ops.h"

namespace tfhpc::distrib {
namespace {

struct MiniCluster {
  MiniCluster() {
    wire::ClusterDef def;
    wire::JobDef workers;
    workers.name = "worker";
    workers.task_addrs = {"mb-w0:1", "mb-w1:1"};
    def.jobs = {workers};
    spec = std::make_unique<ClusterSpec>(ClusterSpec::Create(def).value());
    w0 = Server::Create({*spec, "worker", 0, 1}, &router).value();
    w1 = Server::Create({*spec, "worker", 1, 1}, &router).value();
  }
  InProcessRouter router;
  std::unique_ptr<ClusterSpec> spec;
  std::unique_ptr<Server> w0, w1;
};

// One push per iteration over each protocol, up to 4M f32 elements (the
// 16 MiB stream_push update), so the per-protocol staging cost shows in
// wall time on the real client -> transport -> server path.
void BM_RemoteVarAssignAdd(benchmark::State& state) {
  MiniCluster c;
  RemoteTask w1(&c.router, "mb-w1:1",
                static_cast<WireProtocol>(state.range(1)));
  Tensor update(DType::kF32, Shape{state.range(0)});
  for (auto _ : state) {
    auto s = w1.VarAssignAdd("bench", update);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(state.iterations() * update.bytes());
  state.SetLabel(WireProtocolName(static_cast<WireProtocol>(state.range(1))));
}
BENCHMARK(BM_RemoteVarAssignAdd)
    ->ArgsProduct({{1 << 10, 1 << 18, 1 << 22},
                   {static_cast<int64_t>(WireProtocol::kGrpc),
                    static_cast<int64_t>(WireProtocol::kMpi),
                    static_cast<int64_t>(WireProtocol::kRdma)}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The RpcEnvelope checksum over a serialized f32 tensor of range(0) content
// bytes, inline (range(1) == 0) or as a head + tensor-buffer view. 1 MiB of
// content (plus its head) is hashed on the calling thread, 16 MiB across
// the pool.
void BM_PayloadChecksum(benchmark::State& state) {
  Tensor t(DType::kF32, Shape{state.range(0) / 4});
  FillUniform(t, 1);
  const bool view = state.range(1) != 0;
  const wire::PayloadRef payload =
      view ? wire::SerializeTensorView(t)
           : wire::PayloadRef(wire::SerializeTensor(t));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::PayloadChecksum(payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
  state.SetLabel(view ? "view" : "inline");
}
BENCHMARK(BM_PayloadChecksum)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1})
    ->Args({16 << 20, 0})
    ->Args({16 << 20, 1})
    ->UseRealTime();

void BM_RemoteRunStep(benchmark::State& state) {
  MiniCluster c;
  Scope s(&c.w0->graph());
  auto x = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto y = ops::Mul(s, x, ops::Const(s, Tensor::Scalar(2.0)));
  RemoteTask w0(&c.router, "mb-w0:1", WireProtocol::kRdma);
  // Registered once; the loop times the per-step RPC: handle + feeds.
  const uint64_t handle = w0.RegisterStep({"x"}, {y.name()}).value();
  for (auto _ : state) {
    auto r = w0.RunRegisteredStep(handle, {{"x", Tensor::Scalar(1.0)}});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_RemoteRunStep);

void BM_RemoteQueuePingPong(benchmark::State& state) {
  MiniCluster c;
  RemoteTask w1(&c.router, "mb-w1:1", WireProtocol::kRdma);
  Tensor t = Tensor::Scalar(1.0);
  for (auto _ : state) {
    (void)w1.Enqueue("pp", t);
    auto r = w1.Dequeue("pp");
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_RemoteQueuePingPong);

void BM_RendezvousSendRecv(benchmark::State& state) {
  MiniCluster c;
  RemoteTask w1(&c.router, "mb-w1:1", WireProtocol::kRdma);
  Tensor t(DType::kF64, Shape{1 << 12});
  int64_t k = 0;
  for (auto _ : state) {
    const std::string key = "b" + std::to_string(k++);
    (void)w1.RendezvousSend(key, t);
    auto r = c.w1->resources().rendezvous().Recv(key);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(state.iterations() * t.bytes());
}
BENCHMARK(BM_RendezvousSendRecv);

void BM_BarrierRound(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  MiniCluster c;
  const int rounds = static_cast<int>(state.max_iterations);
  std::thread coordinator([&] {
    (void)QueueBarrier::RunCoordinator(&c.router, "mb-w0:1",
                                       WireProtocol::kRdma, "b", workers,
                                       rounds);
  });
  std::vector<std::thread> others;
  for (int w = 1; w < workers; ++w) {
    others.emplace_back([&, w] {
      QueueBarrier barrier(&c.router, "mb-w0:1", WireProtocol::kRdma, "b",
                           workers);
      for (int r = 0; r < rounds; ++r) {
        if (!barrier.Arrive(w).ok()) return;
      }
    });
  }
  QueueBarrier barrier(&c.router, "mb-w0:1", WireProtocol::kRdma, "b",
                       workers);
  int done = 0;
  for (auto _ : state) {
    auto r = barrier.Arrive(0);
    benchmark::DoNotOptimize(r.ok());
    ++done;
  }
  // Drain remaining coordinator rounds so threads join.
  for (int r = done; r < rounds; ++r) (void)barrier.Arrive(0);
  coordinator.join();
  for (auto& t : others) t.join();
}
BENCHMARK(BM_BarrierRound)->Arg(2)->Arg(4)->Iterations(500);

void BM_RingAllreduce(benchmark::State& state) {
  const int64_t elements = state.range(0);
  for (auto _ : state) {
    auto r = apps::RunRingAllreduceFunctional(4, elements, 1,
                                              WireProtocol::kRdma);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(state.iterations() * elements * 8);
}
BENCHMARK(BM_RingAllreduce)->Arg(1 << 10)->Arg(1 << 16);

void BM_DistributedSessionStep(benchmark::State& state) {
  MiniCluster c;
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto x = ops::Placeholder(t0, DType::kF64, Shape{}, "x");
  auto y = ops::Mul(t1, x, ops::Const(t1, Tensor::Scalar(3.0)));
  DeviceName dev;
  dev.job = "worker";
  dev.task = 0;
  auto session = DistributedSession::Create(&c.router, *c.spec,
                                            WireProtocol::kRdma,
                                            g.ToGraphDef(), dev)
                     .value();
  for (auto _ : state) {
    auto r = session->Run({{"x", Tensor::Scalar(2.0)}}, {y.name()});
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_DistributedSessionStep);

}  // namespace
}  // namespace tfhpc::distrib
