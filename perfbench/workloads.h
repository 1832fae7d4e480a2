// The benchmark's workloads. Each drives the system only through its public
// APIs, the way the paper's applications do (src/apps), and keeps its
// cluster alive across units of work so boot is paid once, in Setup.
//
//   matmul_tiled — Fig. 4 map-reduce, N = 2048 f32 in 512^2 .npy tiles,
//                  2 workers + 2 parity reducers, MPI. Unit: one multiply.
//   stream_push  — Fig. 7 STREAM, VarAssignAdd of a 16 MiB f32 vector into
//                  the ps variable over gRPC. Unit: one push.
//
// Two side workloads carry no end-to-end metrics and run inside every
// traced run, for the layers only they reach (WorkloadNames() omits them):
//
//   cg_poisson   — Fig. 5 CG, 2 workers + ps queue reducer, RDMA. Unit: one
//                  solve of a 32x32 5-point Poisson system (n = 1024).
//   serving_step — the serving_load graph (64-element f64 feed, Mul, 8 Adds)
//                  via RunRegisteredStep from 4 clients, admission 2 in
//                  flight, RDMA. Unit: one step.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"

namespace perfbench {

// Counter snapshot across one workload's cluster; per-unit count metrics
// are deltas of these over a fixed set of units.
struct Counters {
  int64_t transport_calls = 0;
  int64_t payload_bytes = 0;
  int64_t bytes_copied = 0;
  int64_t bytes_serialized = 0;
  int64_t bytes_forwarded = 0;
  int64_t allocs = 0;     // device AllocatorStats, all servers
  int64_t pool_hits = 0;
  int64_t peak_bytes = 0;  // max device peak since boot
  int64_t admitted = 0;   // ServingStats, all servers
  int64_t shed = 0;
  int64_t expired_in_queue = 0;
  int64_t cache_misses = 0;  // executable-cache misses, all sessions
  int64_t iterations = 0;    // CG iterations run
};

// Results of the traced run's probes (layers the unit loop does not reach,
// or baselines next to it).
struct ProbeOut {
  double unloaded_send_us_p50 = 0;  // 1-client pass (serving_step)
  double serial_solve_ms = 0;       // plain serial CG (cg_poisson)
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Data generation and tiling, cluster boot and the first compile.
  virtual tfhpc::Status Setup() = 0;
  // Closed-loop client threads running units concurrently.
  virtual int clients() const { return 1; }
  // Runs unit `index` on client thread `client` and returns its flop count
  // under the paper's model. The index selects the unit's seeded inputs.
  virtual tfhpc::Result<double> RunUnit(int client, uint64_t index) = 0;
  // Checks the outputs of `client`'s last unit (kept out of its latency).
  virtual tfhpc::Status CheckUnit(int client) = 0;
  // True when a failed unit leaves the workload unusable (stop the pass).
  virtual bool fatal_failures() const { return true; }
  // End-of-run correctness gate.
  virtual tfhpc::Status Verify() = 0;
  virtual Counters Snapshot() const = 0;

  // Units in the fixed counting pass run before timing (per client).
  virtual int count_units() const = 0;
  // Deadline of one unit; a unit past it fails, a run stuck past it twice
  // over is killed by the watchdog.
  virtual int64_t unit_deadline_ms() const = 0;
  // Signatures the workload compiles (expected executable-cache misses).
  virtual int signatures() const = 0;
  // Time the workload's compiles took in the last Setup (or probe), ms.
  virtual double compile_ms() const = 0;
  // A payload the workload sends, for the wire-codec probe.
  virtual tfhpc::Tensor sample_payload() const = 0;
  // Re-loads the workload's input tiles (io probe; spans io/LoadTile) and
  // returns the bytes loaded.
  virtual tfhpc::Result<int64_t> LoadInputs() = 0;
  // Traced-run probes; see ProbeOut.
  virtual tfhpc::Result<ProbeOut> Probe() = 0;
  // Workload parameters for the run fingerprint (JSON object body).
  virtual std::string params() const = 0;
};

// `work_dir` receives the workload's tile files; it is removed on
// destruction. Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& work_dir);
// The workloads a run can measure end to end.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench
