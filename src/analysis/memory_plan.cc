#include "analysis/memory_plan.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "core/buffer.h"
#include "graph/op_def.h"

namespace tfhpc::analysis {
namespace {

// Ops whose kernels compute output[i] from input[i] in a single streaming
// pass, so output may legally share the input's bytes. Deliberately NOT
// derived from overwrites_outputs: MatMul/FFT/Transpose overwrite their
// outputs but re-read inputs at arbitrary offsets and must never alias.
bool InPlaceSafe(const std::string& op) {
  static const std::set<std::string> kSafe = {"Add",  "Sub", "Mul", "Div",
                                              "Sqrt", "Neg", "Axpy"};
  return kSafe.count(op) > 0;
}

int64_t AlignUp(int64_t v) {
  constexpr int64_t kAlign = Buffer::kAlignment;
  return (v + kAlign - 1) / kAlign * kAlign;
}

struct Placement {
  int tensor = -1;   // index into live.tensors()
  int64_t offset = 0;
  int64_t extent = 0;  // aligned bytes
};

}  // namespace

const PlannedTensor* MemoryPlan::Find(const std::string& node,
                                      int slot) const {
  for (const PlannedTensor& p : planned_) {
    if (p.slot == slot && p.node == node) return &p;
  }
  return nullptr;
}

MemoryPlan MemoryPlan::Plan(const LivenessAnalysis& live) {
  MemoryPlan plan;

  // ---- classify tensors -----------------------------------------------------
  const std::vector<TensorLife>& tensors = live.tensors();
  std::vector<int> arena_candidates;
  for (size_t i = 0; i < tensors.size(); ++i) {
    const TensorLife& t = tensors[i];
    if (t.fed) continue;  // caller-owned, never charged to the step
    if (!t.statically_sized()) {
      ++plan.dynamic_tensors_;
      continue;
    }
    bool eligible = !t.fetched && t.bytes > 0;
    if (eligible) {
      const OpDef* producer = OpRegistry::Global().Lookup(live.node_op(t.def));
      eligible = producer != nullptr && producer->overwrites_outputs &&
                 // Multi-output producers stay on the pool: the executor
                 // hands a kernel one arena view, matched by dtype/shape, so
                 // same-shaped sibling slots could swap views and inherit
                 // the wrong planned lifetime. No registered op hits this.
                 producer->num_outputs == 1;
    }
    // Escape fence: every kernel that can see this buffer must be one that
    // only reads it and writes its own output. Ops without
    // overwrites_outputs (Assign, Identity, queue/send ops) may retain or
    // pass through the input buffer past the planned interval.
    if (eligible) {
      for (int u : t.data_uses) {
        const OpDef* consumer = OpRegistry::Global().Lookup(live.node_op(u));
        if (consumer == nullptr || !consumer->overwrites_outputs) {
          eligible = false;
          break;
        }
      }
    }
    if (eligible) {
      arena_candidates.push_back(static_cast<int>(i));
    } else {
      plan.pool_bytes_ += t.bytes;
    }
  }

  // ---- deterministic placement ----------------------------------------------
  // Producer-schedule order (largest first within a node, then slot) so the
  // same liveness always yields byte-identical plans.
  std::sort(arena_candidates.begin(), arena_candidates.end(),
            [&](int a, int b) {
              const TensorLife& ta = tensors[static_cast<size_t>(a)];
              const TensorLife& tb = tensors[static_cast<size_t>(b)];
              if (ta.def != tb.def) return ta.def < tb.def;
              if (ta.bytes != tb.bytes) return ta.bytes > tb.bytes;
              return ta.slot < tb.slot;
            });

  std::vector<Placement> placements;
  for (int id : arena_candidates) {
    const TensorLife& t = tensors[static_cast<size_t>(id)];
    const int64_t extent = AlignUp(t.bytes);

    // In-place aliasing: a single-data-consumer input of the same
    // dtype/shape, already in the arena, whose only reader is this
    // streaming-safe producer, donates its offset. The overwrite is safe
    // precisely because nobody else can ever look at those bytes again.
    const PlannedTensor* alias = nullptr;
    if (InPlaceSafe(live.node_op(t.def))) {
      for (const Placement& p : placements) {
        const TensorLife& in = tensors[static_cast<size_t>(p.tensor)];
        if (in.data_uses.size() != 1 || in.data_uses[0] != t.def) continue;
        if (in.fetched || in.dtype != t.dtype || in.shape != t.shape ||
            in.bytes != t.bytes) {
          continue;
        }
        // Offset already re-donated to a sibling output of this node.
        bool taken = false;
        for (const PlannedTensor& q : plan.planned_) {
          if (q.in_place && q.offset == p.offset &&
              live.PositionOf(q.node) == t.def) {
            taken = true;
            break;
          }
        }
        if (!taken) {
          alias = plan.Find(in.node, in.slot);
        }
        if (alias != nullptr) break;
      }
    }

    int64_t offset = 0;
    if (alias != nullptr) {
      offset = alias->offset;
    } else {
      // First fit: lowest aligned offset clear of every placement whose
      // tensor is not provably dead before this producer runs. Unordered
      // (possibly concurrent) tensors always conflict — that is what makes
      // arena_bytes a sound bound under concurrent execution.
      std::vector<std::pair<int64_t, int64_t>> blocked;
      for (const Placement& p : placements) {
        const TensorLife& other = tensors[static_cast<size_t>(p.tensor)];
        if (live.DeadBefore(other, t.def)) continue;
        blocked.emplace_back(p.offset, p.offset + p.extent);
      }
      std::sort(blocked.begin(), blocked.end());
      for (const auto& [start, end] : blocked) {
        if (start - offset >= extent) break;
        offset = std::max(offset, end);
      }
    }

    placements.push_back(Placement{id, offset, extent});
    PlannedTensor pt;
    pt.node = t.node;
    pt.slot = t.slot;
    pt.dtype = t.dtype;
    pt.shape = t.shape;
    pt.offset = offset;
    pt.bytes = t.bytes;
    pt.in_place = alias != nullptr;
    if (pt.in_place) ++plan.in_place_;
    plan.arena_bytes_ = std::max(plan.arena_bytes_, offset + extent);
    plan.planned_.push_back(std::move(pt));
  }

  plan.static_peak_bytes_ = plan.arena_bytes_ + plan.pool_bytes_;

  // ---- serialized waterlines (reporting only) -------------------------------
  const int n = live.num_nodes();
  std::vector<int64_t> delta(static_cast<size_t>(n) + 1, 0);
  for (const TensorLife& t : tensors) {
    if (t.fed || !t.statically_sized() || t.bytes == 0) continue;
    delta[static_cast<size_t>(t.def)] += t.bytes;
    delta[static_cast<size_t>(t.last) + 1] -= t.bytes;
  }
  plan.waterlines_.resize(static_cast<size_t>(n), 0);
  int64_t running = 0;
  int64_t peak = -1;
  for (int i = 0; i < n; ++i) {
    running += delta[static_cast<size_t>(i)];
    plan.waterlines_[static_cast<size_t>(i)] = running;
    if (running > peak) {
      peak = running;
      plan.peak_position_ = i;
    }
  }
  return plan;
}

std::string MemoryPlan::ToString(const LivenessAnalysis& live) const {
  auto mib = [](int64_t b) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(b) / (1 << 20));
    return std::string(buf);
  };
  std::ostringstream os;
  os << "  pos  live-MiB  node\n";
  for (int i = 0; i < live.num_nodes(); ++i) {
    os << (i == peak_position_ ? "* " : "  ");
    char pos[16];
    std::snprintf(pos, sizeof(pos), "%3d", i);
    os << pos << "  " << mib(waterlines_[static_cast<size_t>(i)]) << "  "
       << live.node_name(i) << " (" << live.node_op(i) << ")\n";
  }
  os << "arena bytes:        " << arena_bytes_ << " (" << mib(arena_bytes_)
     << " MiB, " << planned_.size() << " planned, " << in_place_
     << " in-place)\n";
  os << "pool bytes:         " << pool_bytes_ << " (" << mib(pool_bytes_)
     << " MiB)\n";
  os << "static peak bytes:  " << static_peak_bytes_ << " ("
     << mib(static_peak_bytes_) << " MiB)";
  if (dynamic_tensors_ > 0) {
    os << " + " << dynamic_tensors_ << " dynamic tensor(s) unbounded";
  }
  os << "\n";
  return os.str();
}

std::vector<Diagnostic> LintMemory(const wire::GraphDef& def,
                                   const LivenessAnalysis& live,
                                   const MemoryPlan& plan,
                                   int64_t budget_bytes, int top_k) {
  std::vector<Diagnostic> diags;

  // GC018: provable budget breach, before any kernel runs.
  if (budget_bytes > 0 && plan.static_peak_bytes() > budget_bytes) {
    diags.push_back(Diagnostic{
        Severity::kError, "GC018", "",
        "static peak memory " + std::to_string(plan.static_peak_bytes()) +
            " bytes exceeds the step budget " +
            std::to_string(budget_bytes) + " bytes",
        "shrink tensor shapes, split the step, or raise "
        "step_memory_limit_bytes"});
  }

  // GC019: a variable write racing a reader of the prior value. Assign and
  // AssignAdd name their variable via the 'var' attr; the reader is the
  // Variable node of the same name. Any data consumer of the read that is
  // not ordered before the writer observes the pre- or post-write value
  // nondeterministically.
  for (const wire::NodeDef& nd : def.nodes) {
    if (nd.op != "Assign" && nd.op != "AssignAdd") continue;
    const int wpos = live.PositionOf(nd.name);
    if (wpos < 0) continue;
    auto var_attr = nd.attrs.find("var");
    if (var_attr == nd.attrs.end()) continue;
    const std::string var_name = var_attr->second.s;
    const TensorLife* read = live.Find(var_name, 0);
    if (read == nullptr) continue;
    for (int u : read->data_uses) {
      if (u == wpos || live.HappensBefore(u, wpos)) continue;
      diags.push_back(Diagnostic{
          Severity::kWarning, "GC019", nd.name,
          "overwrites variable '" + var_name + "' while consumer '" +
              live.node_name(u) + "' of its read is not ordered before the "
              "write — the consumer observes old or new value "
              "nondeterministically",
          "add a control edge from '" + live.node_name(u) + "' to '" +
              nd.name + "'"});
    }
  }

  // GC020: report-only worst lifetime-stretchers, span x bytes.
  struct Stretch {
    int64_t cost;
    const TensorLife* t;
  };
  std::vector<Stretch> stretches;
  for (const TensorLife& t : live.tensors()) {
    if (t.fed || !t.statically_sized() || t.bytes == 0) continue;
    const int span = t.last - t.def;
    if (span <= 1) continue;  // dies at/right after its producer: not a cost
    stretches.push_back(Stretch{static_cast<int64_t>(span) * t.bytes, &t});
  }
  std::sort(stretches.begin(), stretches.end(),
            [](const Stretch& a, const Stretch& b) {
              if (a.cost != b.cost) return a.cost > b.cost;
              if (a.t->node != b.t->node) return a.t->node < b.t->node;
              return a.t->slot < b.t->slot;
            });
  if (top_k > 0 && static_cast<int>(stretches.size()) > top_k) {
    stretches.resize(static_cast<size_t>(top_k));
  }
  for (const Stretch& s : stretches) {
    diags.push_back(Diagnostic{
        Severity::kInfo, "GC020", s.t->node,
        "output " + std::to_string(s.t->slot) + " (" +
            std::to_string(s.t->bytes) + " bytes) stays live across " +
            std::to_string(s.t->last - s.t->def) +
            " schedule positions (until '" + live.node_name(s.t->last) + "')",
        s.t->fetched
            ? "fetched tensors live to step end; fetch less if possible"
            : "scheduling its consumers earlier shrinks the working set"});
  }
  return diags;
}

}  // namespace tfhpc::analysis
