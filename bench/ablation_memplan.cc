// Ablation: what does the static memory planner (src/analysis/liveness.h +
// memory_plan.h) buy at runtime? The app step graphs — an elementwise
// chain, the CG worker step, and the FFT worker step — run with memory
// planning on (arena execution) and off (GraphCheckMode::kOff, which skips
// analysis and so planning: per-output pool allocation):
//
//   - allocator traffic: allocations/step and pooled bytes/step from the
//     device allocator stats (the planner's whole point is collapsing N
//     per-output pool trips into one arena block);
//   - bounds: the compile-time static peak (Executable::static_peak_bytes)
//     against the measured per-step peak from the MemoryLimiter
//     (RunMetadata::step_peak_bytes);
//   - safety: fetched tensors must be bitwise identical between modes.
//
// The binary asserts (exit 1 on violation): plan-on strictly reduces
// allocator calls per step on at least one workload, fetches agree
// bitwise on every workload, and static peak >= measured peak on every
// workload where a plan exists (plan-off sessions skip planning, so
// only plan-on cells carry a bound). Results land in BENCH_memplan.json;
// ci.sh runs
// `ablation_memplan --smoke` as a gate.
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/app_graphs.h"
#include "bench_util.h"
#include "graph/ops.h"
#include "runtime/session.h"

using namespace tfhpc;

namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Workload {
  std::string name;
  std::map<std::string, Tensor> feeds;
  std::vector<std::string> fetches;
  std::map<std::string, Tensor> setup_feeds;  // run once, before timing
  std::vector<std::string> setup_targets;
};

// Per-(workload, plan mode) measurements.
struct Cell {
  double us_per_step = 0;
  double allocs_per_step = 0;
  double pool_bytes_per_step = 0;
  int64_t static_peak_bytes = 0;   // compile-time bound (same plan both modes)
  int64_t measured_peak_bytes = 0; // max MemoryLimiter peak across steps
  int64_t arena_bytes = 0;
  int planned_nodes = 0;
  std::vector<Tensor> values;      // fetched tensors, for cross-mode identity
  bool ok = false;
};

Tensor RampF64(int64_t n, double scale) {
  std::vector<double> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = scale * (1.0 + 0.25 * static_cast<double>(i));
  }
  return Tensor::FromVector(std::move(v));
}

// A 10-stage elementwise chain over one fed vector: every intermediate is
// arena-eligible (overwriting producer, overwriting consumers, static
// shape), so this is the planner's best case.
Workload BuildChain(const Scope& s, int64_t n) {
  auto x = ops::Placeholder(s, DType::kF64, Shape{n}, "x");
  auto c2 = ops::Const(s, Tensor::Scalar(2.0), "c2");
  auto c3 = ops::Const(s, Tensor::Scalar(3.0), "c3");
  Output t = ops::Add(s, x, c2);
  t = ops::Mul(s, t, c3);
  t = ops::Sub(s, t, c2);
  t = ops::Mul(s, t, t);
  t = ops::Sqrt(s, t);
  t = ops::Add(s, t, c3);
  t = ops::Div(s, t, c2);
  t = ops::Mul(s, t, c2);
  t = ops::Sub(s, t, c3);
  t = ops::Add(s, t, x);
  Workload w;
  w.name = "chain10";
  w.feeds.emplace("x", RampF64(n, 1e-3));
  w.fetches = {t.name()};
  return w;
}

Workload BuildCg(const Scope& s, int64_t rows, int64_t n) {
  const apps::CgWorkerGraph g = apps::BuildCgWorkerGraph(s, rows, n);
  Workload w;
  w.name = "cg_worker";
  {
    std::vector<double> a(static_cast<size_t>(rows * n));
    for (size_t i = 0; i < a.size(); ++i) {
      a[i] = 1e-4 * (1.0 + 0.25 * static_cast<double>(i % 97));
    }
    w.setup_feeds.emplace(g.a_feed, Tensor::FromVector(Shape{rows, n}, a));
  }
  w.setup_targets = {g.a_init};
  w.feeds.emplace(g.p, RampF64(n, 1.0));
  w.feeds.emplace(g.u, RampF64(rows, 0.5));
  w.feeds.emplace(g.v, RampF64(rows, 0.25));
  w.feeds.emplace(g.alpha, Tensor::Scalar(0.125));
  w.feeds.emplace(g.ax, RampF64(n, 2.0));
  w.feeds.emplace(g.ay, RampF64(n, -1.0));
  w.fetches = {g.ap, g.dot, g.axpy};
  return w;
}

Workload BuildFft(const Scope& s, int64_t m) {
  const apps::FftWorkerGraph g = apps::BuildFftWorkerGraph(s, m);
  Tensor x(DType::kC128, Shape{m});
  auto* lanes = static_cast<std::complex<double>*>(x.raw_data());
  for (int64_t i = 0; i < m; ++i) {
    const double ph = 2.0 * 3.14159265358979323846 * static_cast<double>(i) /
                      static_cast<double>(m);
    lanes[i] = {std::cos(3 * ph), std::sin(5 * ph)};
  }
  Workload w;
  w.name = "fft_worker";
  w.feeds.emplace(g.x, std::move(x));
  w.fetches = {g.spectrum};
  return w;
}

Cell Measure(const std::function<Workload(const Scope&)>& build, bool plan,
             int steps) {
  Cell cell;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  const Workload w = build(s);

  SessionOptions opts;
  if (!plan) opts.graph_check = GraphCheckMode::kOff;
  auto session = rt.NewSession(opts);
  if (!w.setup_targets.empty()) {
    auto r = session->Run(w.setup_feeds, {}, w.setup_targets);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: setup failed: %s\n", w.name.c_str(),
                   r.status().ToString().c_str());
      return cell;
    }
  }

  std::vector<std::string> feed_keys;
  for (const auto& [name, tensor] : w.feeds) feed_keys.push_back(name);
  auto exe = session->Prepare(feed_keys, w.fetches);
  if (!exe.ok()) {
    std::fprintf(stderr, "%s: compile failed: %s\n", w.name.c_str(),
                 exe.status().ToString().c_str());
    return cell;
  }
  cell.static_peak_bytes = (*exe)->static_peak_bytes();
  cell.arena_bytes = (*exe)->arena_bytes();
  cell.planned_nodes = (*exe)->num_planned_nodes();

  // Arm the step limiter (ceiling never binds) so every step reports its
  // true high-water mark through RunMetadata.
  RunOptions ropts;
  ropts.step_memory_limit_bytes = int64_t{1} << 40;

  // Warm run: populates the signature cache and yields the identity values.
  RunMetadata meta;
  auto warm = session->RunPrepared(**exe, w.feeds, ropts, &meta);
  if (!warm.ok()) {
    std::fprintf(stderr, "%s: step failed: %s\n", w.name.c_str(),
                 warm.status().ToString().c_str());
    return cell;
  }
  cell.values = *warm;
  cell.measured_peak_bytes = meta.step_peak_bytes;

  int64_t allocs0 = 0, pool0 = 0;
  for (const auto& d : rt.devices().devices()) {
    allocs0 += d->allocator_stats()->allocs();
    pool0 += d->allocator_stats()->pool_bytes();
  }
  const double start = NowUs();
  for (int i = 0; i < steps; ++i) {
    RunMetadata step_meta;
    auto r = session->RunPrepared(**exe, w.feeds, ropts, &step_meta);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: step failed: %s\n", w.name.c_str(),
                   r.status().ToString().c_str());
      return cell;
    }
    if (step_meta.step_peak_bytes > cell.measured_peak_bytes) {
      cell.measured_peak_bytes = step_meta.step_peak_bytes;
    }
  }
  cell.us_per_step = (NowUs() - start) / steps;
  int64_t allocs1 = 0, pool1 = 0;
  for (const auto& d : rt.devices().devices()) {
    allocs1 += d->allocator_stats()->allocs();
    pool1 += d->allocator_stats()->pool_bytes();
  }
  cell.allocs_per_step = static_cast<double>(allocs1 - allocs0) / steps;
  cell.pool_bytes_per_step = static_cast<double>(pool1 - pool0) / steps;
  cell.ok = true;
  return cell;
}

bool BitIdentical(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].BitwiseEquals(b[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int steps = smoke ? 40 : 400;
  const int64_t chain_n = smoke ? 1024 : 65536;
  const int64_t cg_rows = smoke ? 32 : 256;
  const int64_t cg_n = smoke ? 128 : 1024;
  const int64_t fft_m = smoke ? 256 : 4096;

  bench::Header("Ablation — static memory planner",
                "compile-time liveness + arena execution vs per-output pool "
                "allocation on the app step graphs");
  bench::JsonResults json("memplan");
  json.Meta("mode", smoke ? "smoke" : "full")
      .Meta("steps", static_cast<double>(steps));

  struct Entry {
    std::string name;
    std::function<Workload(const Scope&)> build;
  };
  const std::vector<Entry> entries = {
      {"chain10", [&](const Scope& s) { return BuildChain(s, chain_n); }},
      {"cg_worker", [&](const Scope& s) { return BuildCg(s, cg_rows, cg_n); }},
      {"fft_worker", [&](const Scope& s) { return BuildFft(s, fft_m); }},
  };

  bool failed = false;
  bool any_alloc_reduction = false;
  std::printf("%-11s %-5s | %11s %9s %12s | %7s %12s %12s | %9s\n",
              "workload", "plan", "us/step", "allocs/st", "pool B/step",
              "planned", "static peak", "meas. peak", "identical");
  bench::Rule();
  for (const Entry& e : entries) {
    Cell off = Measure(e.build, /*plan=*/false, steps);
    Cell on = Measure(e.build, /*plan=*/true, steps);
    if (!off.ok || !on.ok) return 1;
    const bool identical = BitIdentical(off.values, on.values);
    for (const auto* c : {&off, &on}) {
      const bool is_on = c == &on;
      std::printf(
          "%-11s %-5s | %11.1f %9.1f %12.0f | %7d %12lld %12lld | %9s\n",
          e.name.c_str(), is_on ? "on" : "off", c->us_per_step,
          c->allocs_per_step, c->pool_bytes_per_step, c->planned_nodes,
          static_cast<long long>(c->static_peak_bytes),
          static_cast<long long>(c->measured_peak_bytes),
          is_on ? (identical ? "yes" : "NO") : "-");
      json.Record()
          .Str("workload", e.name)
          .Str("plan", is_on ? "on" : "off")
          .Num("us_per_step", c->us_per_step)
          .Num("allocs_per_step", c->allocs_per_step)
          .Num("pool_bytes_per_step", c->pool_bytes_per_step)
          .Num("planned_nodes", c->planned_nodes)
          .Num("arena_bytes", static_cast<double>(c->arena_bytes))
          .Num("static_peak_bytes", static_cast<double>(c->static_peak_bytes))
          .Num("measured_peak_bytes",
               static_cast<double>(c->measured_peak_bytes))
          .Num("bit_identical", identical ? 1 : 0);

      // Soundness gate: wherever a plan was computed (plan-off sessions
      // skip planning entirely, so their static peak reads 0), the
      // compile-time bound must dominate the measured high-water mark.
      if (c->static_peak_bytes > 0 &&
          c->static_peak_bytes < c->measured_peak_bytes) {
        std::fprintf(
            stderr, "FAIL: %s plan=%s static peak %lld < measured %lld\n",
            e.name.c_str(), is_on ? "on" : "off",
            static_cast<long long>(c->static_peak_bytes),
            static_cast<long long>(c->measured_peak_bytes));
        failed = true;
      }
    }
    // Safety gate: arena execution must not perturb a single bit.
    if (!identical) {
      std::fprintf(stderr, "FAIL: %s fetches differ between plan modes\n",
                   e.name.c_str());
      failed = true;
    }
    if (on.planned_nodes > 0 && on.allocs_per_step < off.allocs_per_step) {
      any_alloc_reduction = true;
    }
    bench::Rule();
  }

  // Coverage gate: the planner must pay for itself somewhere — fewer
  // allocator calls per step on at least one app graph.
  if (!any_alloc_reduction) {
    std::fprintf(stderr,
                 "FAIL: no workload reduced allocator calls with planning on\n");
    failed = true;
  }

  json.WriteFile("BENCH_memplan.json");
  if (failed) return 1;
  std::printf(
      "memplan ablation: fetches bit-identical, static peak bounds hold\n");
  return 0;
}
