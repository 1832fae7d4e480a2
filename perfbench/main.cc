// perfbench: the repository benchmark. Runs one workload (workloads.h) on
// a seed for a fixed time, checks every output, and prints the metrics as
// one JSON object on the last line of stdout:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file.json>]
//
// --trace 0 reports the end-to-end metrics, measured untraced. --trace 1
// splits the time into an untraced and a traced pass and reports the
// per-layer metrics; it also prints each layer's self time and the tracing
// overhead (traced minus untraced end-to-end metrics), and writes the spans
// as Chrome trace JSON to --trace-out. run.py builds this binary and is the
// usual entry point.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace.h"
#include "wire/messages.h"
#include "wire/payload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tfhpc::Status;

// Set-up repetitions: at least kMinSetups and until kSetupBudgetS of set-up
// time has passed (at most kMaxSetups); setup_s is their median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 60;
constexpr double kSetupBudgetS = 2.0;
constexpr int64_t kRunLimitNs = int64_t{170} * 1000000000;
constexpr size_t kMaxTraceEvents = 50000;  // spans written to --trace-out

// ---- hang watchdog ----------------------------------------------------------

std::atomic<int64_t> g_progress_ns{0};
std::atomic<int64_t> g_stall_limit_ns{0};
std::atomic<const char*> g_phase{"start"};
std::string g_workload;

void Progress() { g_progress_ns.store(NowNs()); }

void EnterPhase(const char* phase, int64_t stall_limit_ms) {
  g_phase.store(phase);
  g_stall_limit_ns.store(stall_limit_ms * 1000000);
  Progress();
}

// Kills the process, naming the workload and phase, when no unit (or set-up)
// finishes within the stall limit or the whole run overstays its limit.
class Watchdog {
 public:
  Watchdog() : thread_([this] { Loop(); }) {}
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const int64_t now = NowNs();
      const int64_t stalled = now - g_progress_ns.load();
      if (stalled > g_stall_limit_ns.load() || now - start_ > kRunLimitNs) {
        std::fprintf(stderr,
                     "perfbench: HANG: workload %s stuck in %s: no progress "
                     "for %.1f s (%.1f s into the run)\n",
                     g_workload.c_str(), g_phase.load(),
                     static_cast<double>(stalled) / 1e9,
                     static_cast<double>(now - start_) / 1e9);
        std::fflush(nullptr);
        std::_Exit(3);  // the stuck threads cannot be joined
      }
    }
  }

  const int64_t start_ = NowNs();
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it reads
};

// ---- statistics -------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of unsorted values.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// ---- passes -----------------------------------------------------------------

struct UnitSample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double flops = 0;
};

struct PassResult {
  std::vector<UnitSample> units;  // completed and checked
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // the pass's deadline, or its end when unit-counted
  Counters before, after;
  bool gate_failed = false;
  std::string error;

  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    for (const UnitSample& u : units) {
      out.push_back(static_cast<double>(u.end_ns - u.start_ns) / 1e6);
    }
    return out;
  }
};

// Closed loop: each client runs its next unit when the previous one ends,
// until `seconds` pass (or, when units_per_client > 0, for exactly that many
// units). Unit indices come from one shared counter, so every unit of a run
// gets distinct seeded inputs.
PassResult RunPass(Workload& wl, double seconds, int units_per_client,
                   std::atomic<uint64_t>* next_index) {
  PassResult res;
  std::mutex mu;
  std::atomic<bool> stop{false};
  res.before = wl.Snapshot();
  res.start_ns = NowNs();
  const int64_t deadline = res.start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < wl.clients(); ++c) {
    clients.emplace_back([&, c] {
      std::vector<UnitSample> done_units;
      int64_t attempted = 0, failed = 0;
      for (int done = 0; !stop.load(); ++done) {
        if (units_per_client > 0 ? done >= units_per_client
                                 : NowNs() >= deadline) {
          break;
        }
        const uint64_t index = next_index->fetch_add(1);
        const int64_t t0 = NowNs();
        tfhpc::Result<double> flops = [&] {
          UnitSpan unit("apps/unit");
          return wl.RunUnit(c, index);
        }();
        const int64_t t1 = NowNs();
        Progress();
        ++attempted;
        if (!flops.ok()) {
          ++failed;
          std::lock_guard<std::mutex> lk(mu);
          if (res.error.empty()) res.error = flops.status().ToString();
          if (wl.fatal_failures()) stop.store(true);
          continue;
        }
        const Status check = wl.CheckUnit(c);
        if (!check.ok()) {
          std::lock_guard<std::mutex> lk(mu);
          res.gate_failed = true;
          if (res.error.empty()) res.error = check.ToString();
          stop.store(true);
          continue;
        }
        done_units.push_back({t0, t1, *flops});
      }
      std::lock_guard<std::mutex> lk(mu);
      res.units.insert(res.units.end(), done_units.begin(), done_units.end());
      res.attempted += attempted;
      res.failed += failed;
    });
  }
  for (auto& t : clients) t.join();
  res.end_ns = units_per_client > 0 ? NowNs() : deadline;
  res.after = wl.Snapshot();
  return res;
}

// name -> (value, unit), in BENCHMARK.json order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

// The pass is cut into kWindows equal time windows. Rates are the median
// over windows, each unit counted in a window by the share of its run time
// that fell inside it; the latency is the median of per-window medians over
// windows of >= kUnitsPerLatencyWindow completions (fewer windows for slow
// workloads). Medians keep a burst of interference from another tenant of
// the machine out of the figures. Tail quantiles follow that interference
// too closely to carry a regression bound; PrintPooled prints them.
constexpr int kWindows = 10;
constexpr size_t kUnitsPerLatencyWindow = 50;

struct WindowedStats {
  double units_per_s = 0;
  double flops_per_s = 0;
  double p50_ms = 0;
  std::vector<double> window_units_per_s;
};

WindowedStats Windowed(const PassResult& p) {
  WindowedStats w;
  const double span = static_cast<double>(p.end_ns - p.start_ns);
  if (p.units.empty() || span <= 0) return w;
  std::vector<double> rate, flops;
  for (int k = 0; k < kWindows; ++k) {
    const double ws = static_cast<double>(p.start_ns) + span * k / kWindows;
    const double we = ws + span / kWindows;
    double units = 0, f = 0;
    for (const UnitSample& u : p.units) {
      const double s = static_cast<double>(u.start_ns);
      const double e = static_cast<double>(u.end_ns);
      const double overlap = std::min(e, we) - std::max(s, ws);
      if (overlap <= 0) continue;
      const double share = e > s ? overlap / (e - s) : 1.0;
      units += share;
      f += share * u.flops;
    }
    rate.push_back(units / ((we - ws) / 1e9));
    flops.push_back(f / ((we - ws) / 1e9));
  }
  w.window_units_per_s = rate;
  w.units_per_s = Quantile(rate, 0.5);
  w.flops_per_s = Quantile(flops, 0.5);

  const size_t groups = std::clamp<size_t>(
      p.units.size() / kUnitsPerLatencyWindow, 1, kWindows);
  std::vector<std::vector<double>> lat(groups);
  for (const UnitSample& u : p.units) {
    const double at = static_cast<double>(u.end_ns - p.start_ns) / span;
    const size_t g = std::min(groups - 1, static_cast<size_t>(
                                              std::max(0.0, at) * groups));
    lat[g].push_back(static_cast<double>(u.end_ns - u.start_ns) / 1e6);
  }
  std::vector<double> p50;
  for (const auto& l : lat) {
    if (!l.empty()) p50.push_back(Quantile(l, 0.5));
  }
  w.p50_ms = Quantile(p50, 0.5);
  return w;
}

Metrics EndToEnd(const PassResult& p, double setup_s) {
  const WindowedStats w = Windowed(p);
  // Transport bytes per completed unit over the pass, at the windowed rate.
  const double bytes_per_unit =
      static_cast<double>(p.after.payload_bytes - p.before.payload_bytes) /
      static_cast<double>(std::max<size_t>(1, p.units.size()));
  return {
      {"setup_s", {setup_s, "s"}},
      {"latency_p50_ms", {w.p50_ms, "ms"}},
      {"units_per_s", {w.units_per_s, "1/s"}},
      {"gflops", {w.flops_per_s / 1e9, "GF/s"}},
      {"mb_per_s", {bytes_per_unit * w.units_per_s / 1e6, "MB/s"}},
      {"peak_rss_mb", {PeakRssMb(), "MiB"}},
  };
}

// Pass-wide figures, printed next to the windowed metrics.
void PrintPooled(const char* label, const PassResult& p) {
  const std::vector<double> lat = p.LatenciesMs();
  const double s = static_cast<double>(p.end_ns - p.start_ns) / 1e9;
  std::printf("%s: %zu units in %.3f s, %.6g units/s; latency ms p50 %.6g "
              "p90 %.6g p99 %.6g max %.6g\n",
              label, lat.size(), s, static_cast<double>(lat.size()) / s,
              Quantile(lat, 0.5), Quantile(lat, 0.9), Quantile(lat, 0.99),
              Quantile(lat, 1.0));
  std::printf("%s: units/s per window:", label);
  for (double r : Windowed(p).window_units_per_s) std::printf(" %.6g", r);
  std::printf("\n");
}

// MB/s of `fn` applied to `bytes`-sized payloads, repeated >= 50 ms.
template <typename Fn>
double RateMbPerS(double bytes, Fn fn) {
  int64_t reps = 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  while (reps < 5 || t1 - t0 < 50000000) {
    fn();
    ++reps;
    t1 = NowNs();
  }
  return bytes * static_cast<double>(reps) /
         (static_cast<double>(t1 - t0) / 1e9) / 1e6;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double SumDurationsUs(const std::vector<Span>& spans, const std::string& name) {
  return Sum(DurationsUs(spans, name));
}

std::string Json(const Metrics& m) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < m.size(); ++i) {
    double v = m[i].second.first;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m[i].first.c_str());
      v = 0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    out << (i ? ", " : "") << "\"" << m[i].first << "\": {\"value\": " << num
        << ", \"unit\": \"" << m[i].second.second << "\"}";
  }
  out << "}";
  return out.str();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir = "perfbench_work";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// Pass outcomes accumulated over a run.
struct RunState {
  bool correct = true;
  bool stopped = false;  // a gate failed or a unit failed fatally
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;

  void Fail(const std::string& e) {
    correct = false;
    if (error.empty()) error = e;
  }
  void Account(const PassResult& p, bool fatal_failures) {
    attempted += p.attempted;
    failed += p.failed;
    if (p.gate_failed) correct = false;
    if (error.empty()) error = p.error;
    stopped = stopped || p.gate_failed || (p.failed > 0 && fatal_failures);
  }
};

// A side workload (cg_poisson, serving_step) carries no end-to-end metrics:
// its figures follow the other tenants of a shared host too closely for a
// bound (METRICS.md). It is the only one to reach some layers, so every
// traced run runs both: set-up, the counting pass, an untraced and a traced
// pass of kSidePassS each, the workload's Probe() and its end-of-run gate.
constexpr double kSidePassS = 1.0;

struct SideRun {
  PassResult counting;
  PassResult untraced;
  std::vector<Span> spans;  // traced pass
  ProbeOut probe;

  double p50_ms() const { return Quantile(untraced.LatenciesMs(), 0.5); }
};

Status RunSide(const char* name, const Args& args, SideRun* out) {
  const std::unique_ptr<Workload> wl =
      MakeWorkload(name, args.seed, args.work_dir + "/" + name);
  TFHPC_RETURN_IF_ERROR(wl->Setup());
  std::atomic<uint64_t> next{0};
  out->counting = RunPass(*wl, 0, wl->count_units(), &next);
  out->untraced = RunPass(*wl, kSidePassS, 0, &next);
  Tracer::Clear();
  Tracer::SetEnabled(true);
  const PassResult traced = RunPass(*wl, kSidePassS, 0, &next);
  Tracer::SetEnabled(false);
  out->spans = Tracer::Collect();
  Tracer::Clear();
  for (const PassResult* p : {&std::as_const(out->counting),
                              &std::as_const(out->untraced), &traced}) {
    if (p->failed > 0 || p->gate_failed) {
      return tfhpc::Internal(std::string(name) + ": " + p->error);
    }
  }
  TFHPC_ASSIGN_OR_RETURN(out->probe, wl->Probe());
  return wl->Verify();
}

// What the traced run measured, beyond its passes.
struct TraceData {
  std::vector<Span> spans;        // traced pass
  KernelTotals kernels;           // traced pass
  std::vector<Span> probe_spans;  // probes
  KernelTotals probe_kernels;     // probes
  double io_mb_per_s = 0;
  SideRun cg, serving;
};

Metrics PerLayer(Workload& wl, const PassResult& counting,
                 const TraceData& t) {
  // Session-layer numbers come from the unit loop when it runs sessions,
  // otherwise from the probe of the same graph.
  const bool loop_runs = t.kernels.runs > 0;
  const KernelTotals& kt = loop_runs ? t.kernels : t.probe_kernels;
  const std::vector<Span>& session_spans = loop_runs ? t.spans : t.probe_spans;

  // Count metrics are deltas over the fixed counting pass.
  const Counters& c0 = counting.before;
  const Counters& c1 = counting.after;
  const Counters& sv0 = t.serving.counting.before;
  const Counters& sv1 = t.serving.counting.after;
  const Counters& cg0 = t.cg.counting.before;
  const Counters& cg1 = t.cg.counting.after;
  const double units = static_cast<double>(counting.attempted);
  auto per_unit = [&](int64_t after, int64_t before) {
    return static_cast<double>(after - before) / units;
  };
  const Counters now = wl.Snapshot();
  const double calls = static_cast<double>(c1.transport_calls -
                                           c0.transport_calls);
  const double payload = static_cast<double>(c1.payload_bytes -
                                             c0.payload_bytes);
  const double allocs = static_cast<double>(c1.allocs - c0.allocs);

  std::vector<double> send_us;
  for (const char* name :
       {"distrib.client/Enqueue", "distrib.client/VarAssignAdd"}) {
    const std::vector<double> d = DurationsUs(t.spans, name);
    send_us.insert(send_us.end(), d.begin(), d.end());
  }
  const double send_p50 = Quantile(send_us, 0.5);

  const tfhpc::Tensor payload_tensor = wl.sample_payload();
  const double payload_tensor_bytes =
      static_cast<double>(payload_tensor.bytes());
  const double checksum_mbps = RateMbPerS(payload_tensor_bytes, [&] {
    volatile uint64_t sink = tfhpc::wire::PayloadChecksum(
        tfhpc::wire::SerializeTensorView(payload_tensor));
    (void)sink;
  });
  const double serialize_mbps = RateMbPerS(payload_tensor_bytes, [&] {
    volatile size_t sink = tfhpc::wire::SerializeTensor(payload_tensor).size();
    (void)sink;
  });

  return {
      {"runtime.session.run_us_p50",
       {Quantile(DurationsUs(session_spans, "runtime.session/Run"), 0.5),
        "us"}},
      {"runtime.session.compile_ms", {wl.compile_ms(), "ms"}},
      {"runtime.session.cache_misses",
       {static_cast<double>(now.cache_misses), "count"}},
      {"runtime.executor.overhead_us_per_run",
       {Ratio(kt.run_us - kt.node_union_us, static_cast<double>(kt.runs)),
        "us"}},
      {"kernels.gflops", {Ratio(kt.flops, kt.node_busy_us) / 1e3, "GF/s"}},
      {"kernels.gbps", {Ratio(kt.bytes, kt.node_busy_us) / 1e3, "GB/s"}},
      {"kernels.busy_share", {Ratio(kt.node_union_us, kt.run_us), "ratio"}},
      {"core.buffer.allocs_per_unit", {allocs / units, "count"}},
      {"core.buffer.pool_hit_ratio",
       {Ratio(static_cast<double>(c1.pool_hits - c0.pool_hits), allocs),
        "ratio"}},
      {"core.buffer.peak_mb",
       {static_cast<double>(now.peak_bytes) / (1 << 20), "MiB"}},
      {"distrib.client.send_us_p50", {send_p50, "us"}},
      {"distrib.client.dequeue_wait_share",
       {Ratio(SumDurationsUs(t.cg.spans, "distrib.client/Dequeue"),
              SumDurationsUs(t.cg.spans, "apps/worker")),
        "ratio"}},
      {"runtime.serving.queue_share",
       {1.0 - Ratio(t.serving.probe.unloaded_send_us_p50,
                    t.serving.p50_ms() * 1e3),
        "ratio"}},
      {"runtime.serving.admitted",
       {static_cast<double>(sv1.admitted - sv0.admitted), "count"}},
      {"runtime.serving.shed",
       {static_cast<double>(sv1.shed - sv0.shed), "count"}},
      {"runtime.serving.expired_in_queue",
       {static_cast<double>(sv1.expired_in_queue - sv0.expired_in_queue),
        "count"}},
      {"runtime.queue.reducer_wait_share",
       {Ratio(SumDurationsUs(t.spans, "runtime.queue/Dequeue"),
              SumDurationsUs(t.spans, "apps/reducer")),
        "ratio"}},
      {"distrib.transport.calls_per_unit", {calls / units, "count"}},
      {"distrib.transport.payload_bytes_per_unit", {payload / units, "B"}},
      {"distrib.transport.bytes_copied_per_unit",
       {per_unit(c1.bytes_copied, c0.bytes_copied), "B"}},
      {"distrib.transport.bytes_serialized_per_unit",
       {per_unit(c1.bytes_serialized, c0.bytes_serialized), "B"}},
      {"distrib.transport.bytes_forwarded_per_unit",
       {per_unit(c1.bytes_forwarded, c0.bytes_forwarded), "B"}},
      {"wire.checksum_mb_per_s", {checksum_mbps, "MB/s"}},
      {"wire.serialize_mb_per_s", {serialize_mbps, "MB/s"}},
      {"wire.checksum_share",
       {Ratio(2 * Ratio(payload, calls) / (checksum_mbps * 1e6),
              send_p50 * 1e-6),
        "ratio"}},
      {"io.load_tile_ms_p50",
       {Quantile(DurationsUs(t.probe_spans, "io/LoadTile"), 0.5) / 1e3,
        "ms"}},
      {"io.tile_mb_per_s", {t.io_mb_per_s, "MB/s"}},
      {"apps.cg.iterations_per_solve",
       {Ratio(static_cast<double>(cg1.iterations - cg0.iterations),
              static_cast<double>(t.cg.counting.attempted)),
        "count"}},
      {"apps.cg.vs_serial_ratio",
       {Ratio(t.cg.p50_ms(), t.cg.probe.serial_solve_ms), "x"}},
  };
}

// Self time per layer and the tracing overhead, above the result line.
void PrintTraceReport(Workload& wl, const PassResult& untraced,
                      const PassResult& traced, const TraceData& t,
                      double setup_s) {
  const Counters now = wl.Snapshot();
  if (now.cache_misses != wl.signatures()) {
    std::printf("note: %lld executable-cache misses, %d signatures\n",
                static_cast<long long>(now.cache_misses), wl.signatures());
  }
  std::printf("cg_poisson side run: solve p50 %.3f ms, serial CG solve "
              "%.3f ms\n",
              t.cg.p50_ms(), t.cg.probe.serial_solve_ms);
  std::printf("serving_step side run: step p50 %.3f us (4 clients), "
              "%.3f us (1 client)\n",
              t.serving.p50_ms() * 1e3, t.serving.probe.unloaded_send_us_p50);
  PrintPooled("untraced pass", untraced);
  PrintPooled("traced pass", traced);
  const double units = static_cast<double>(traced.units.size());
  std::printf("self time per layer (traced pass, %zu units, %zu spans, "
              "%lld dropped):\n",
              traced.units.size(), t.spans.size(),
              static_cast<long long>(Tracer::dropped()));
  for (const auto& [layer, self] : SelfTimeByLayer(t.spans)) {
    std::printf("  selftime %-18s spans/unit %10.1f  self ms/unit %10.4f\n",
                layer.c_str(), Ratio(static_cast<double>(self.spans), units),
                Ratio(self.self_ms, units));
  }
  const Metrics before = EndToEnd(untraced, setup_s);
  const Metrics after = EndToEnd(traced, setup_s);
  std::printf("tracing overhead (traced - untraced):\n");
  for (size_t i = 0; i < before.size(); ++i) {
    const double u = before[i].second.first;
    const double v = after[i].second.first;
    std::printf("  overhead %-15s untraced %12.6g traced %12.6g delta "
                "%+10.4g %s (%+.1f%%)\n",
                before[i].first.c_str(), u, v, v - u,
                before[i].second.second.c_str(), 100.0 * Ratio(v - u, u));
  }
}

// --trace 1: an untraced and a traced pass of half the time each, then the
// probes, all spans kept in memory until the end.
Metrics TracedRun(Workload& wl, const Args& args, double setup_s,
                  const PassResult& counting, std::atomic<uint64_t>* next,
                  int64_t stall_ms, RunState* st) {
  EnterPhase("untraced pass", stall_ms);
  const PassResult untraced = RunPass(wl, args.seconds / 2, 0, next);
  st->Account(untraced, wl.fatal_failures());
  if (st->stopped) return {};

  TraceData t;
  Tracer::SetEnabled(true);
  EnterPhase("traced pass", stall_ms);
  const PassResult traced = RunPass(wl, args.seconds / 2, 0, next);
  st->Account(traced, wl.fatal_failures());
  t.spans = Tracer::Collect();
  t.kernels = Tracer::kernel_totals();
  if (st->stopped) {
    Tracer::SetEnabled(false);
    return {};
  }

  // Probes: layers the unit loop does not reach, and the io layer.
  Tracer::Clear();
  EnterPhase("probes", stall_ms);
  const Status probe = wl.Probe().status();
  if (!probe.ok()) st->Fail("probe: " + probe.ToString());
  double io_bytes = 0, io_s = 0;
  const int64_t t0 = NowNs();
  for (int k = 0; k < 200 && (k < 10 || NowNs() - t0 < 100000000); ++k) {
    const int64_t l0 = NowNs();
    auto bytes = wl.LoadInputs();
    if (!bytes.ok()) {
      st->Fail("io probe: " + bytes.status().ToString());
      break;
    }
    io_bytes += static_cast<double>(*bytes);
    io_s += static_cast<double>(NowNs() - l0) / 1e9;
  }
  t.io_mb_per_s = Ratio(io_bytes, io_s) / 1e6;
  t.probe_spans = Tracer::Collect();
  t.probe_kernels = Tracer::kernel_totals();
  Tracer::SetEnabled(false);

  for (const auto& [name, side] : {std::pair{"cg_poisson", &t.cg},
                                   std::pair{"serving_step", &t.serving}}) {
    EnterPhase(name, stall_ms);
    const Status s = RunSide(name, args, side);
    if (!s.ok()) st->Fail(s.ToString());
  }

  const Metrics metrics = PerLayer(wl, counting, t);
  PrintTraceReport(wl, untraced, traced, t, setup_s);
  if (!args.trace_out.empty()) {
    std::vector<Span> all = t.spans;
    for (const auto* s : {&t.probe_spans, &t.cg.spans, &t.serving.spans}) {
      all.insert(all.end(), s->begin(), s->end());
    }
    if (WriteChromeTrace(args.trace_out, std::move(all), kMaxTraceEvents)) {
      std::printf("trace -> %s\n", args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  return metrics;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n");
    return 2;
  }
  g_workload = args.workload;
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (!kOptimized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: built without optimization (%s); "
                 "timings are not representative\n",
                 PERFBENCH_BUILD_TYPE);
  }
  EnterPhase("start", 60000);
  Watchdog watchdog;

  // ---- set-up: repeated, the median is setup_s; the last one is kept ------
  std::unique_ptr<Workload> wl;
  std::vector<double> setup_s;
  for (int r = 0; r < kMaxSetups &&
                  (r < kMinSetups || Sum(setup_s) < kSetupBudgetS);
       ++r) {
    wl.reset();  // tear down the previous cluster first
    EnterPhase("setup", 60000);
    wl = MakeWorkload(args.workload, args.seed,
                      args.work_dir + "/setup" + std::to_string(r));
    const int64_t t0 = NowNs();
    const Status s = wl->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                   args.workload.c_str(), s.ToString().c_str());
      return 1;
    }
  }
  const double setup_median = Quantile(setup_s, 0.5);

  std::printf("fingerprint {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": "
              "\"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"setups\": %zu, \"params\": {%s}}\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_CXX_ID, PERFBENCH_BUILD_TYPE,
              kOptimized ? "true" : "false", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, setup_s.size(), wl->params().c_str());

  const int64_t stall_ms = 2 * wl->unit_deadline_ms();
  std::atomic<uint64_t> next_index{0};
  RunState st;

  // ---- counting pass: a fixed set of units (also the warm-up) -------------
  EnterPhase("counting pass", stall_ms);
  const PassResult counting = RunPass(*wl, 0, wl->count_units(), &next_index);
  st.Account(counting, wl->fatal_failures());

  Metrics metrics;
  if (!st.stopped && args.trace == 1) {
    metrics = TracedRun(*wl, args, setup_median, counting, &next_index,
                        stall_ms, &st);
  } else if (!st.stopped) {
    EnterPhase("measured pass", stall_ms);
    const PassResult p = RunPass(*wl, args.seconds, 0, &next_index);
    st.Account(p, wl->fatal_failures());
    metrics = EndToEnd(p, setup_median);
    PrintPooled("pass", p);
  }

  // ---- end-of-run correctness gate ------------------------------------------
  EnterPhase("verify", 120000);
  if (!st.stopped) {
    const Status v = wl->Verify();
    if (!v.ok()) st.Fail(v.ToString());
  }
  if (!st.error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 st.error.c_str());
  }
  EnterPhase("teardown", 60000);
  wl.reset();

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              st.correct ? "true" : "false",
              static_cast<long long>(st.attempted),
              static_cast<long long>(st.failed), Json(metrics).c_str());
  std::fflush(stdout);
  return st.correct && st.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
