// Ablation: OOM-as-status under an injected allocator fault schedule. A
// multi-client distributed workload (4 tenants x N steps against one worker)
// runs while the server's allocator injects failures with increasing
// probability (size-class filtered, seeded — reproducible schedules). The
// claim under test is the memory-pressure robustness contract:
//   - zero hangs: every step resolves inside its watchdog deadline;
//   - OOM is a *status*, never an abort: failed steps surface as
//     kResourceExhausted (transient, so the client retry policy absorbs most
//     of them) — any other failure code fails the bench;
//   - zero leaks: after the storm, trimming the pool returns the process
//     memory budget exactly to its pre-row baseline (ASan double-checks in
//     the CI leg);
//   - MTTR-style recovery: rows report how many steps needed retries and the
//     retry cost per recovered step.
// Emits BENCH_oom.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/buffer.h"
#include "distrib/client.h"
#include "distrib/server.h"
#include "graph/ops.h"

using namespace tfhpc;           // NOLINT
using namespace tfhpc::distrib;  // NOLINT

namespace {

constexpr int kClients = 4;
constexpr int kStepsPerClient = 40;
constexpr int64_t kWatchdogMs = 20000;  // per step; tripping it = a hang

struct Row {
  double probability = 0.0;
  int64_t ok = 0;               // steps that returned a tensor
  int64_t recovered = 0;        // ok steps that needed >= 1 transport retry
  int64_t oom_failed = 0;       // steps failed kResourceExhausted (transient)
  int64_t other_failed = 0;     // anything else: contract violation
  int64_t hung = 0;             // watchdog deadline trips: contract violation
  int64_t rpc_retries = 0;      // transport retries across all clients
  int64_t injected = 0;         // failures the injector actually fired
  int64_t considered = 0;       // fallible allocations examined
  int64_t residual_bytes = 0;   // process budget delta after trim: leak if != 0
  int64_t elapsed_ms = 0;
  double retries_per_recovery() const {
    return recovered > 0 ? static_cast<double>(rpc_retries) /
                               static_cast<double>(recovered)
                         : 0.0;
  }
};

Row RunOnce(double probability, int row_id) {
  AllocFaultInjector::Global().Disarm();
  BufferPool::Global().Trim();
  const int64_t baseline = MemoryLimiter::Process().used();

  const std::string addr = "oomrow" + std::to_string(row_id) + "-w0:1";
  wire::ClusterDef def;
  wire::JobDef workers;
  workers.name = "worker";
  workers.task_addrs = {addr};
  def.jobs = {workers};
  auto cluster = ClusterSpec::Create(def).value();

  InProcessRouter router;
  ServerDef sdef{cluster, "worker", 0, 0};
  // Seeded, size-class-filtered schedule: only tensor-sized allocations
  // (>= 4 KB) are eligible, so wire/bookkeeping allocations ride through.
  sdef.alloc_faults.probability = probability;
  sdef.alloc_faults.seed = 1000 + static_cast<uint64_t>(row_id);
  sdef.alloc_faults.min_bytes = 4096;
  auto server = Server::Create(sdef, &router).value();

  // Per-step work: two 64 KB tensor outputs per step.
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{8192}, "x");
  auto y = ops::Add(s, x, x);
  auto z = ops::Mul(s, y, x);
  // The step is registered once, before the clients start; each client
  // then runs it by handle.
  uint64_t handle = 0;
  {
    RemoteTask setup(&router, addr, WireProtocol::kRdma);
    if (!setup.ExtendGraph(g.ToGraphDef()).ok()) std::abort();
    auto registered = setup.RegisterStep({"x"}, {z.name()});
    if (!registered.ok()) std::abort();
    handle = *registered;
  }
  Row row;
  row.probability = probability;
  std::atomic<int64_t> ok{0}, recovered{0}, oom_failed{0}, other_failed{0},
      hung{0}, rpc_retries{0};

  const auto start = std::chrono::steady_clock::now();
  {
    // Scoped so the feed (one 64 KB pooled buffer) dies before the residual
    // measurement — only genuinely leaked bytes survive the trim below.
    const Tensor feed = Tensor::FromVector(std::vector<double>(8192, 1.5));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RetryPolicy retry;
        retry.max_attempts = 16;
        retry.initial_backoff_ms = 1;
        retry.max_backoff_ms = 32;
        retry.deadline_ms = kWatchdogMs;
        retry.seed = 77 + static_cast<uint64_t>(c);
        RemoteTask task(&router, addr, WireProtocol::kRdma, retry);
        for (int i = 0; i < kStepsPerClient; ++i) {
          const int64_t retries_before = task.retries();
          auto token = CancellationToken::WithTimeout(kWatchdogMs);
          auto r = task.RunRegisteredStep(handle, {{"x", feed}}, false,
                                          token.get());
          const int64_t step_retries = task.retries() - retries_before;
          rpc_retries.fetch_add(step_retries);
          if (r.ok()) {
            ok.fetch_add(1);
            if (step_retries > 0) recovered.fetch_add(1);
          } else if (r.status().code() == Code::kDeadlineExceeded) {
            hung.fetch_add(1);  // the watchdog had to fire: treated as a hang
          } else if (r.status().code() == Code::kResourceExhausted &&
                     IsTransientResourceExhausted(r.status())) {
            oom_failed.fetch_add(1);  // clean transient failure, retries spent
          } else {
            std::fprintf(stderr, "contract violation: %s\n",
                         r.status().ToString().c_str());
            other_failed.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  row.elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  row.injected = AllocFaultInjector::Global().injected();
  row.considered = AllocFaultInjector::Global().considered();
  AllocFaultInjector::Global().Disarm();
  server->Shutdown();
  server.reset();

  BufferPool::Global().Trim();
  row.residual_bytes = MemoryLimiter::Process().used() - baseline;
  row.ok = ok.load();
  row.recovered = recovered.load();
  row.oom_failed = oom_failed.load();
  row.other_failed = other_failed.load();
  row.hung = hung.load();
  row.rpc_retries = rpc_retries.load();
  return row;
}

}  // namespace

int main() {
  bench::Header("ablation: OOM-as-status under injected allocator faults",
                "memory-pressure robustness: budgeted allocation + fault "
                "injection; every failed step must be a clean transient "
                "kResourceExhausted, never a hang, abort or leak");
  std::printf("%-6s %5s %5s %5s %5s %5s %8s %9s %9s %9s %8s\n", "p_inj", "ok",
              "recov", "oom", "other", "hung", "retries", "injected",
              "examined", "resid_B", "ms");
  bench::Rule();

  bench::JsonResults json("oom");
  json.Meta("clients", static_cast<double>(kClients))
      .Meta("steps_per_client", static_cast<double>(kStepsPerClient))
      .Meta("watchdog_ms", static_cast<double>(kWatchdogMs))
      .Meta("schedule", "probability, seeded, min_bytes=4096");

  bool contract_ok = true;
  int row_id = 0;
  for (double p : {0.0, 0.02, 0.1, 0.3}) {
    Row row = RunOnce(p, row_id++);
    const int64_t total = static_cast<int64_t>(kClients) * kStepsPerClient;
    // The robustness contract. Failed-but-clean OOM steps are allowed (the
    // retry budget is finite); hangs, aborts, foreign codes and leaks are
    // not. Every step must be accounted for.
    if (row.hung != 0 || row.other_failed != 0 || row.residual_bytes != 0 ||
        row.ok + row.oom_failed + row.hung + row.other_failed != total) {
      contract_ok = false;
    }
    std::printf("%-6.2f %5lld %5lld %5lld %5lld %5lld %8lld %9lld %9lld "
                "%9lld %8lld\n",
                row.probability, static_cast<long long>(row.ok),
                static_cast<long long>(row.recovered),
                static_cast<long long>(row.oom_failed),
                static_cast<long long>(row.other_failed),
                static_cast<long long>(row.hung),
                static_cast<long long>(row.rpc_retries),
                static_cast<long long>(row.injected),
                static_cast<long long>(row.considered),
                static_cast<long long>(row.residual_bytes),
                static_cast<long long>(row.elapsed_ms));
    json.Record()
        .Num("probability", row.probability)
        .Num("steps_ok", static_cast<double>(row.ok))
        .Num("steps_recovered", static_cast<double>(row.recovered))
        .Num("steps_oom_failed", static_cast<double>(row.oom_failed))
        .Num("steps_other_failed", static_cast<double>(row.other_failed))
        .Num("steps_hung", static_cast<double>(row.hung))
        .Num("rpc_retries", static_cast<double>(row.rpc_retries))
        .Num("retries_per_recovery", row.retries_per_recovery())
        .Num("faults_injected", static_cast<double>(row.injected))
        .Num("allocs_examined", static_cast<double>(row.considered))
        .Num("residual_bytes", static_cast<double>(row.residual_bytes))
        .Num("elapsed_ms", static_cast<double>(row.elapsed_ms));
  }
  bench::Rule();
  std::printf("recov = ok steps that needed transport retries; oom = steps "
              "that stayed kResourceExhausted after the retry budget; "
              "resid_B = process-budget bytes not returned after trim "
              "(must be 0)\n");
  json.WriteFile("BENCH_oom.json");
  if (!contract_ok) {
    std::fprintf(stderr, "OOM robustness contract VIOLATED\n");
    return 1;
  }
  std::printf("contract held: zero hangs, zero foreign failures, zero "
              "residual bytes\n");
  return 0;
}
