// Logical trace replay: schedules a DAG of compute / transfer / disk ops
// onto device timelines and the fair-share flow network, producing virtual
// start/finish times and the makespan. The applications' Simulate* entry
// points build these traces from the paper's problem sizes without running
// the executor; benchmarks report the replayed virtual time, never host
// wall-clock.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "sim/network.h"

namespace tfhpc::sim {

using OpId = int;

struct SimOp {
  enum class Kind { kCompute, kTransfer, kDelay };
  Kind kind = Kind::kCompute;
  std::string label;

  // kCompute: runs exclusively on `device` (serialized per device), duration
  // precomputed by the caller's roofline model.
  std::string device;
  double duration_s = 0;

  // kTransfer: occupies `path`, moving `bytes` with fair sharing.
  std::vector<LinkId> path;
  int64_t bytes = 0;

  // kDelay: fixed `duration_s` with no resource (host-side python overheads,
  // RPC handling).

  std::vector<OpId> deps;
};

struct OpTiming {
  double start = 0;
  double finish = 0;
};

struct ReplayResult {
  std::vector<OpTiming> timings;  // indexed by OpId
  double makespan = 0;
  // Busy time per device (utilization = busy / makespan).
  std::map<std::string, double> device_busy_s;
};

class TraceReplayer {
 public:
  explicit TraceReplayer(FlowNetwork* net) : net_(net) {}

  // Appends an op; deps must have smaller ids. Returns its id.
  OpId Add(SimOp op);
  OpId AddCompute(std::string device, double duration_s,
                  std::vector<OpId> deps, std::string label = "");
  OpId AddTransfer(std::vector<LinkId> path, int64_t bytes,
                   std::vector<OpId> deps, std::string label = "");
  OpId AddDelay(double duration_s, std::vector<OpId> deps,
                std::string label = "");

  int num_ops() const { return static_cast<int>(ops_.size()); }

  // Runs the whole DAG to completion and returns timings. The replayer is
  // single-shot: build, replay, read.
  Result<ReplayResult> Replay(Simulation* sim);

 private:
  FlowNetwork* net_;
  std::vector<SimOp> ops_;
};

}  // namespace tfhpc::sim
