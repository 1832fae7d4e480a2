#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

namespace perfbench {
namespace {

// Hard cap on spans kept in memory; beyond it spans are counted as dropped.
constexpr int64_t kMaxSpans = 1500000;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_tid{1};
std::atomic<int64_t> g_kept{0};
std::atomic<int64_t> g_dropped{0};

struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<Span> spans;
};

std::mutex g_mu;  // guards g_buffers' list, g_totals and g_names
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
KernelTotals g_totals;
std::set<std::string> g_names;  // interned node span names

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_unit = 0;
thread_local uint64_t t_parent = 0;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    auto b = std::make_unique<ThreadBuffer>();
    b->tid = g_next_tid.fetch_add(1);
    std::lock_guard<std::mutex> lk(g_mu);
    t_buffer = b.get();
    g_buffers.push_back(std::move(b));
  }
  return t_buffer;
}

uint64_t NewId() { return g_next_id.fetch_add(1); }

void Append(const Span& s) {
  if (g_kept.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer* b = Buffer();
  Span copy = s;
  copy.tid = b->tid;
  b->spans.push_back(copy);
}

const char* Intern(const std::string& s) {
  return g_names.insert(s).first->c_str();  // caller holds g_mu
}

// Length of the union of [start, end) intervals.
template <typename T>
T UnionLength(std::vector<std::pair<T, T>> iv) {
  std::sort(iv.begin(), iv.end());
  T total = 0;
  T cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

std::string LayerOf(const char* name) {
  const std::string n(name);
  const size_t slash = n.find('/');
  return slash == std::string::npos ? n : n.substr(0, slash);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }
void Tracer::SetEnabled(bool on) { g_enabled.store(on); }
uint64_t Tracer::current_unit() { return t_unit; }
uint64_t Tracer::current_span() { return t_parent; }
void Tracer::SetContext(uint64_t unit, uint64_t parent) {
  t_unit = unit;
  t_parent = parent;
}

void Tracer::RecordRun(uint64_t run_span, int64_t run_start_ns,
                       int64_t run_end_ns, const tfhpc::RunMetadata& md) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(md.nodes.size());
  double busy = 0, flops = 0, bytes = 0;
  std::vector<Span> node_spans;
  node_spans.reserve(md.nodes.size());
  {
    std::lock_guard<std::mutex> lk(g_mu);
    for (const tfhpc::NodeExecRecord& n : md.nodes) {
      iv.emplace_back(n.start_us, n.end_us);
      busy += n.end_us - n.start_us;
      flops += n.cost.flops;
      bytes += static_cast<double>(n.cost.bytes_read + n.cost.bytes_written);
      Span s;
      s.name = Intern("kernels/" + n.op);
      // Node times are relative to the executor's step start, which the
      // Run span opens just before; anchor them at the Run span's start.
      s.start_ns = run_start_ns + static_cast<int64_t>(n.start_us * 1e3);
      s.end_ns = run_start_ns + static_cast<int64_t>(n.end_us * 1e3);
      s.id = NewId();
      s.parent = run_span;
      s.unit = t_unit;
      node_spans.push_back(s);
    }
    g_totals.runs += 1;
    g_totals.run_us += static_cast<double>(run_end_ns - run_start_ns) / 1e3;
    g_totals.node_union_us += UnionLength(iv);
    g_totals.node_busy_us += busy;
    g_totals.flops += flops;
    g_totals.bytes += bytes;
  }
  for (const Span& s : node_spans) Append(s);
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

KernelTotals Tracer::kernel_totals() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_totals;
}

int64_t Tracer::dropped() { return g_dropped.load(); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lk(g_mu);
  for (auto& b : g_buffers) b->spans.clear();
  g_totals = KernelTotals{};
  g_kept.store(0);
  g_dropped.store(0);
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = NewId();
  span_.parent = t_parent;
  span_.unit = t_unit;
  saved_parent_ = t_parent;
  t_parent = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_parent = saved_parent_;
  Append(span_);
}

namespace {
uint64_t EnterUnit(uint64_t unit) {
  const uint64_t saved = t_unit;
  t_unit = unit;
  return saved;
}
}  // namespace

UnitSpan::UnitSpan(const char* name)
    : unit_(NewId()), saved_unit_(EnterUnit(unit_)), span_(name) {}

UnitSpan::~UnitSpan() { t_unit = saved_unit_; }

std::map<std::string, LayerSelf> SelfTimeByLayer(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerSelf> out;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> clipped;
      for (auto [cs, ce] : it->second) {
        cs = std::max(cs, s.start_ns);
        ce = std::min(ce, s.end_ns);
        if (ce > cs) clipped.emplace_back(cs, ce);
      }
      covered = UnionLength(std::move(clipped));
    }
    LayerSelf& l = out[LayerOf(s.name)];
    l.spans += 1;
    l.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, std::vector<Span> spans,
                      size_t max_events) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  if (spans.size() > max_events) spans.resize(max_events);
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"unit\":%llu}}",
                  i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.unit));
    out << buf;
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace perfbench
