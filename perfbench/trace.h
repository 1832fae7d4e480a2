// Bench-side tracing: a span around each call the benchmark makes into a
// layer of the system. A span records its name ("layer/op"), start, end, its
// parent span and the unit of work it belongs to. Spans are appended to
// per-thread buffers (no locks on the hot path), kept in memory, and
// analysed or written out once, as Chrome trace JSON, when the run ends.
//
// Tracing is off unless Tracer::SetEnabled(true); a disabled ScopedSpan
// costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/executor.h"

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  // "layer/op"; static or interned storage
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t unit = 0;    // unit of work this span belongs to
  uint32_t tid = 0;
};

// Per-Run executor/kernel accounting from RunOptions.trace node records.
struct KernelTotals {
  int64_t runs = 0;
  double run_us = 0;        // Run wall time
  double node_union_us = 0; // union of the node intervals per Run
  double node_busy_us = 0;  // sum of node durations
  double flops = 0;         // CostEstimate.flops over all nodes
  double bytes = 0;         // CostEstimate bytes read + written
};

class Tracer {
 public:
  static bool enabled();
  static void SetEnabled(bool on);

  // Thread context: the unit and parent span new spans on this thread
  // attach to. Worker threads spawned for a unit inherit it explicitly.
  static uint64_t current_unit();
  static uint64_t current_span();
  static void SetContext(uint64_t unit, uint64_t parent);

  // Records node spans from a traced Run (children of `run_span`, which
  // started at `run_start_ns`) and adds them to the kernel totals.
  static void RecordRun(uint64_t run_span, int64_t run_start_ns,
                        int64_t run_end_ns, const tfhpc::RunMetadata& md);

  // Everything recorded so far, in no particular order. Call these only
  // while no other thread records (between passes).
  static std::vector<Span> Collect();
  static KernelTotals kernel_totals();
  static int64_t dropped();
  // Forgets every span and total.
  static void Clear();
};

// RAII span on the calling thread; nests under the thread's current span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  int64_t start_ns() const { return span_.start_ns; }
  bool active() const { return active_; }

 private:
  Span span_;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

// Root span of one unit of work: assigns a fresh unit id shared by every
// span recorded under it, on this thread and on threads given its context.
class UnitSpan {
 public:
  explicit UnitSpan(const char* name);
  ~UnitSpan();
  uint64_t unit() const { return unit_; }
  uint64_t id() const { return span_.id(); }

 private:
  uint64_t unit_ = 0;
  uint64_t saved_unit_ = 0;
  ScopedSpan span_;
};

// Self time per layer: each span's duration minus the part of it covered by
// its child spans, summed per layer (the name before '/').
struct LayerSelf {
  int64_t spans = 0;
  double self_ms = 0;
};
std::map<std::string, LayerSelf> SelfTimeByLayer(
    const std::vector<Span>& spans);

// Durations of the spans named exactly `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const std::string& name);

// Writes Chrome trace JSON (chrome://tracing, Perfetto); at most
// `max_events` spans, earliest first. Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path, std::vector<Span> spans,
                      size_t max_events);

}  // namespace perfbench
