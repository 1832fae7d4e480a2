#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "apps/app_graphs.h"
#include "cluster/slurm.h"
#include "core/rng.h"
#include "distrib/client.h"
#include "distrib/server.h"
#include "graph/ops.h"
#include "io/dataset.h"
#include "io/tile_store.h"
#include "trace.h"
#include "wire/coded.h"
#include "wire/messages.h"

namespace perfbench {
namespace {

using namespace tfhpc;  // NOLINT
using distrib::RemoteTask;
using distrib::WireProtocol;

// Derives independent input seeds from the run seed (splitmix64).
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double MsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e6;
}

// Session::Run inside a runtime.session span; when tracing, with per-node
// records (RunOptions.trace) attached as kernel spans.
Result<std::vector<Tensor>> TracedRun(
    Session& session, const std::map<std::string, Tensor>& feeds,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets = {}) {
  ScopedSpan span("runtime.session/Run");
  if (!span.active()) return session.Run(feeds, fetches, targets);
  RunOptions options;
  options.trace = true;
  RunMetadata md;
  auto out = session.Run(feeds, fetches, targets, options, &md);
  Tracer::RecordRun(span.id(), span.start_ns(), NowNs(), md);
  return out;
}

// Session::Prepare (the compile) inside a span; adds its time to *ms.
Status TimedPrepare(Session& session, const std::vector<std::string>& feeds,
                    const std::vector<std::string>& fetches,
                    const std::vector<std::string>& targets, double* ms) {
  ScopedSpan span("runtime.session/Prepare");
  const int64_t t0 = NowNs();
  Status s = session.Prepare(feeds, fetches, targets).status();
  *ms += MsSince(t0);
  return s;
}

Result<io::TileStore> StoreTiles(const std::string& dir, const Tensor& matrix,
                                 int64_t tile_rows, int64_t tile_cols) {
  ScopedSpan span("io/StoreTiles");
  return io::TileStore::Create(dir, matrix, tile_rows, tile_cols);
}

Result<Tensor> LoadTile(const io::TileStore& store, int64_t r, int64_t c) {
  ScopedSpan span("io/LoadTile");
  return store.LoadTile(r, c);
}

Result<distrib::ClusterSpec> MakeSpec(
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        jobs) {
  wire::ClusterDef def;
  for (const auto& [name, addrs] : jobs) {
    wire::JobDef job;
    job.name = name;
    job.task_addrs = addrs;
    def.jobs.push_back(job);
  }
  return distrib::ClusterSpec::Create(def);
}

// One workload's process-local cluster. Member order is destruction order
// in reverse: sessions go before the servers they borrow graphs from, and
// servers before the router they are bound to.
struct Cluster {
  distrib::InProcessRouter router;
  std::vector<std::unique_ptr<distrib::Server>> servers;
  std::vector<std::unique_ptr<Session>> sessions;  // made by the benchmark

  Result<distrib::Server*> AddServer(distrib::ServerDef def) {
    TFHPC_ASSIGN_OR_RETURN(auto s, distrib::Server::Create(def, &router));
    servers.push_back(std::move(s));
    return servers.back().get();
  }
  Session* AddSession(distrib::Server* server) {
    sessions.push_back(server->NewSession());
    return sessions.back().get();
  }

  Counters Snapshot() const {
    Counters c;
    for (WireProtocol p :
         {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
      const distrib::TransportStats& st = router.stats(p);
      c.transport_calls += st.calls.load();
      c.payload_bytes += st.payload_bytes.load();
      c.bytes_copied += st.bytes_copied.load();
      c.bytes_serialized += st.bytes_serialized.load();
      c.bytes_forwarded += st.bytes_forwarded.load();
    }
    for (const auto& s : servers) {
      for (const auto& d : s->devices().devices()) {
        const AllocatorStats* a = d->allocator_stats();
        c.allocs += a->allocs();
        c.pool_hits += a->pool_hits();
        c.peak_bytes = std::max(c.peak_bytes, a->peak_bytes());
      }
      const ServingStats ss = s->serving_stats();
      c.admitted += ss.admitted;
      c.shed += ss.shed;
      c.expired_in_queue += ss.expired_in_queue;
      c.cache_misses += s->session().executable_cache_misses();
    }
    for (const auto& s : sessions) {
      c.cache_misses += s->executable_cache_misses();
    }
    return c;
  }
};

class Base : public Workload {
 public:
  Base(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {}
  ~Base() override {
    std::error_code ec;
    std::filesystem::remove_all(work_dir_, ec);
  }
  double compile_ms() const override { return compile_ms_; }

 protected:
  const uint64_t seed_;
  const std::string work_dir_;
  double compile_ms_ = 0;
};

// ============================================================================
// cg_poisson
// ============================================================================

constexpr int64_t kCgGrid = 32;
constexpr int64_t kCgN = kCgGrid * kCgGrid;
constexpr int kCgWorkers = 2;
constexpr int64_t kCgRows = kCgN / kCgWorkers;
constexpr double kCgRelTol = 1e-8;
constexpr int kCgMaxIterations = 4 * kCgN;

// Dense 2-D 5-point Poisson matrix on an m x m grid (Dirichlet boundary).
Tensor PoissonMatrix(int64_t m) {
  const int64_t n = m * m;
  Tensor a(DType::kF64, Shape{n, n});
  double* d = a.mutable_data<double>();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      const int64_t k = i * m + j;
      d[k * n + k] = 4.0;
      if (i > 0) d[k * n + k - m] = -1.0;
      if (i + 1 < m) d[k * n + k + m] = -1.0;
      if (j > 0) d[k * n + k - 1] = -1.0;
      if (j + 1 < m) d[k * n + k + 1] = -1.0;
    }
  }
  return a;
}

double Dot(const double* u, const double* v, int64_t n) {
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += u[i] * v[i];
  return s;
}

double SquaredNorm(const Tensor& v) {
  const double* d = v.data<double>().data();
  return Dot(d, d, v.num_elements());
}

void DenseMatVec(const Tensor& a, const double* x, double* y) {
  const int64_t n = a.shape().dim(0);
  const double* d = a.data<double>().data();
  for (int64_t i = 0; i < n; ++i) y[i] = Dot(d + i * n, x, n);
}

// ||b - A x|| / ||b||, recomputed serially.
double RelResidual(const Tensor& a, const Tensor& x, const Tensor& b) {
  const int64_t n = b.num_elements();
  std::vector<double> ax(static_cast<size_t>(n));
  DenseMatVec(a, x.data<double>().data(), ax.data());
  const double* bd = b.data<double>().data();
  double rr = 0;
  for (int64_t i = 0; i < n; ++i) rr += (bd[i] - ax[i]) * (bd[i] - ax[i]);
  return std::sqrt(rr / Dot(bd, bd, n));
}

// A plain single-threaded dense CG with the distributed solver's stopping
// rule (||r||^2 < tol), as the baseline and the reference solution.
struct SerialCg {
  std::vector<double> x;
  int iterations = 0;
};
SerialCg SolveSerialCg(const Tensor& a, const Tensor& b, double tol) {
  const int64_t n = b.num_elements();
  const size_t un = static_cast<size_t>(n);
  SerialCg out;
  out.x.assign(un, 0.0);
  std::vector<double> r(b.data<double>().begin(), b.data<double>().end());
  std::vector<double> p = r, ap(un);
  double rsold = Dot(r.data(), r.data(), n);
  for (int it = 0; it < kCgMaxIterations; ++it) {
    DenseMatVec(a, p.data(), ap.data());
    const double alpha = rsold / Dot(p.data(), ap.data(), n);
    for (size_t i = 0; i < un; ++i) {
      out.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rsnew = Dot(r.data(), r.data(), n);
    for (size_t i = 0; i < un; ++i) p[i] = r[i] + rsnew / rsold * p[i];
    rsold = rsnew;
    out.iterations = it + 1;
    if (rsnew < tol) break;
  }
  return out;
}

std::string ApIn(int w) { return "ap_in_" + std::to_string(w); }
std::string ApOut(int w) { return "ap_out_" + std::to_string(w); }
std::string DotIn(int w) { return "dot_in_" + std::to_string(w); }
std::string DotOut(int w) { return "dot_out_" + std::to_string(w); }

class CgWorkload : public Base {
 public:
  using Base::Base;

  Status Setup() override {
    {
      ScopedSpan span("apps/generate");
      a_ = PoissonMatrix(kCgGrid);
    }
    TFHPC_ASSIGN_OR_RETURN(store_,
                           StoreTiles(work_dir_ + "/A", a_, kCgRows, kCgN));
    std::vector<std::string> worker_addrs;
    for (int w = 0; w < kCgWorkers; ++w) {
      worker_addrs.push_back("cg-w" + std::to_string(w) + ":3333");
    }
    TFHPC_ASSIGN_OR_RETURN(
        distrib::ClusterSpec spec,
        MakeSpec({{"ps", {"cg-ps:3333"}}, {"worker", worker_addrs}}));
    TFHPC_ASSIGN_OR_RETURN(ps_server_, cluster_.AddServer({spec, "ps", 0, 0}));
    TFHPC_ASSIGN_OR_RETURN(std::string ps_addr, spec.TaskAddress("ps", 0));
    compile_ms_ = 0;
    for (int w = 0; w < kCgWorkers; ++w) {
      TFHPC_ASSIGN_OR_RETURN(distrib::Server * server,
                             cluster_.AddServer({spec, "worker", w, 1}));
      Worker wk;
      Scope scope = Scope(&server->graph()).WithDevice("/gpu:0");
      wk.g = apps::BuildCgWorkerGraph(scope, kCgRows, kCgN);
      wk.session = cluster_.AddSession(server);
      Session& s = *wk.session;
      TFHPC_RETURN_IF_ERROR(
          TimedPrepare(s, {"a_feed"}, {}, {wk.g.a_init}, &compile_ms_));
      TFHPC_RETURN_IF_ERROR(
          TimedPrepare(s, {"p"}, {wk.g.ap}, {}, &compile_ms_));
      TFHPC_RETURN_IF_ERROR(
          TimedPrepare(s, {"u", "v"}, {wk.g.dot}, {}, &compile_ms_));
      TFHPC_RETURN_IF_ERROR(TimedPrepare(s, {"alpha", "ax", "ay"},
                                         {wk.g.axpy}, {}, &compile_ms_));
      // Load this worker's row block into its variable (once per cluster).
      TFHPC_ASSIGN_OR_RETURN(Tensor block, LoadTile(*store_, w, 0));
      TFHPC_RETURN_IF_ERROR(
          TracedRun(s, {{"a_feed", block}}, {}, {wk.g.a_init}).status());
      wk.ps = std::make_unique<RemoteTask>(&cluster_.router, ps_addr,
                                           WireProtocol::kRdma);
      workers_.push_back(std::move(wk));
    }
    return Status::OK();
  }

  Result<double> RunUnit(int, uint64_t index) override {
    Tensor b = Rhs(index);
    const double bb = SquaredNorm(b);
    const double tol = kCgRelTol * kCgRelTol * bb;
    auto token = CancellationToken::WithTimeout(unit_deadline_ms());
    const uint64_t unit = Tracer::current_unit();
    const uint64_t parent = Tracer::current_span();

    // The reducer (Fig. 5), against the ps server's queues.
    Status reducer_status;
    std::thread reducer([&] {
      Tracer::SetContext(unit, parent);
      ScopedSpan span("apps/reducer");
      reducer_status = Reduce(bb, tol, token.get());
    });
    std::vector<Status> worker_status(kCgWorkers);
    std::vector<Tensor> xs(kCgWorkers);
    std::vector<int> iters(kCgWorkers, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < kCgWorkers; ++w) {
      threads.emplace_back([&, w] {
        Tracer::SetContext(unit, parent);
        ScopedSpan span("apps/worker");
        worker_status[w] = Work(w, b, bb, tol, token.get(), &xs[w], &iters[w]);
      });
    }
    for (auto& t : threads) t.join();
    const bool workers_ok =
        std::all_of(worker_status.begin(), worker_status.end(),
                    [](const Status& s) { return s.ok(); });
    if (!workers_ok) ps_server_->resources().CloseAllQueues();
    reducer.join();
    for (const Status& s : worker_status) TFHPC_RETURN_IF_ERROR(s);
    TFHPC_RETURN_IF_ERROR(reducer_status);
    for (int w = 1; w < kCgWorkers; ++w) {
      if (!xs[w].BitwiseEquals(xs[0]) || iters[w] != iters[0]) {
        return Internal("cg: replicated states diverged across workers");
      }
    }
    last_b_ = std::move(b);
    last_x_ = xs[0];
    last_iters_ = iters[0];
    last_index_ = index;
    iterations_.fetch_add(iters[0]);
    return static_cast<double>(iters[0]) * 2.0 * kCgN * kCgN;
  }

  Status CheckUnit(int) override {
    if (last_iters_ >= kCgMaxIterations) {
      return Internal("cg: solve did not converge");
    }
    const double res = RelResidual(a_, last_x_, last_b_);
    if (!(res <= 10 * kCgRelTol)) {
      return Internal("cg: recomputed relative residual " +
                      std::to_string(res) + " above " +
                      std::to_string(10 * kCgRelTol));
    }
    if (last_index_ < static_cast<uint64_t>(count_units())) {
      kept_[last_index_] = {last_x_, last_iters_};
    }
    return Status::OK();
  }

  // The counting-pass solves must match the plain serial CG.
  Status Verify() override {
    if (kept_.empty()) return Internal("cg: no solves to verify");
    for (const auto& [index, kept] : kept_) {
      const Tensor b = Rhs(index);
      const double bb = SquaredNorm(b);
      const SerialCg ref = SolveSerialCg(a_, b, kCgRelTol * kCgRelTol * bb);
      const double* x = kept.first.data<double>().data();
      double dd = 0, rr = 0;
      for (int64_t i = 0; i < kCgN; ++i) {
        dd += (x[i] - ref.x[i]) * (x[i] - ref.x[i]);
        rr += ref.x[i] * ref.x[i];
      }
      if (!(std::sqrt(dd / rr) <= 1e-6)) {
        return Internal("cg: solve " + std::to_string(index) +
                        " differs from the serial CG by " +
                        std::to_string(std::sqrt(dd / rr)));
      }
      if (std::abs(kept.second - ref.iterations) > 2) {
        return Internal("cg: solve " + std::to_string(index) + " took " +
                        std::to_string(kept.second) + " iterations, serial " +
                        std::to_string(ref.iterations));
      }
    }
    return Status::OK();
  }

  Counters Snapshot() const override {
    Counters c = cluster_.Snapshot();
    c.iterations = iterations_.load();
    return c;
  }
  int count_units() const override { return 4; }
  int64_t unit_deadline_ms() const override { return 20000; }
  int signatures() const override { return 4 * kCgWorkers; }
  Tensor sample_payload() const override {
    Tensor slice(DType::kF64, Shape{kCgRows});  // one A*p slice
    std::memcpy(slice.raw_data(), a_.data<double>().data(), kCgRows * 8);
    return slice;
  }
  Result<int64_t> LoadInputs() override {
    int64_t bytes = 0;
    for (int w = 0; w < kCgWorkers; ++w) {
      TFHPC_ASSIGN_OR_RETURN(Tensor t, LoadTile(*store_, w, 0));
      bytes += t.bytes();
    }
    return bytes;
  }
  Result<ProbeOut> Probe() override {
    ProbeOut out;
    const Tensor b = Rhs(0);
    const double bb = SquaredNorm(b);
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      const int64_t t0 = NowNs();
      SolveSerialCg(a_, b, kCgRelTol * kCgRelTol * bb);
      ms.push_back(MsSince(t0));
    }
    std::sort(ms.begin(), ms.end());
    out.serial_solve_ms = ms[1];
    return out;
  }
  std::string params() const override {
    return "\"n\": 1024, \"grid\": \"32x32 5-point Poisson\", \"workers\": 2, "
           "\"protocol\": \"rdma\", \"rel_tol\": 1e-8";
  }

 private:
  struct Worker {
    apps::CgWorkerGraph g;
    Session* session = nullptr;
    std::unique_ptr<RemoteTask> ps;
  };

  // Right-hand side of solve `index`: uniform in [-1, 1), seeded.
  Tensor Rhs(uint64_t index) const {
    Tensor b(DType::kF64, Shape{kCgN});
    FillUniform(b, Mix(seed_, 1000 + index), -1.0, 1.0);
    return b;
  }

  Status Reduce(double rs0, double tol, CancellationToken* token) {
    ResourceMgr& rm = ps_server_->resources();
    double rsnew = rs0;
    for (int it = 0; it < kCgMaxIterations; ++it) {
      Tensor full(DType::kF64, Shape{kCgN});
      for (int w = 0; w < kCgWorkers; ++w) {
        TFHPC_ASSIGN_OR_RETURN(FIFOQueue * in, rm.LookupOrCreateQueue(ApIn(w)));
        Tensor slice;
        {
          ScopedSpan span("runtime.queue/Dequeue");
          TFHPC_ASSIGN_OR_RETURN(slice, in->Dequeue(token));
        }
        if (slice.num_elements() != kCgRows) {
          return Internal("reducer: bad slice length");
        }
        std::memcpy(full.mutable_data<double>() + w * kCgRows,
                    slice.raw_data(), kCgRows * 8);
      }
      for (int w = 0; w < kCgWorkers; ++w) {
        TFHPC_ASSIGN_OR_RETURN(FIFOQueue * out,
                               rm.LookupOrCreateQueue(ApOut(w)));
        ScopedSpan span("runtime.queue/Enqueue");
        TFHPC_RETURN_IF_ERROR(out->Enqueue(full, token));
      }
      for (int round = 0; round < 2; ++round) {
        double sum = 0;
        for (int w = 0; w < kCgWorkers; ++w) {
          TFHPC_ASSIGN_OR_RETURN(FIFOQueue * in,
                                 rm.LookupOrCreateQueue(DotIn(w)));
          ScopedSpan span("runtime.queue/Dequeue");
          TFHPC_ASSIGN_OR_RETURN(Tensor partial, in->Dequeue(token));
          sum += partial.scalar<double>();
        }
        for (int w = 0; w < kCgWorkers; ++w) {
          TFHPC_ASSIGN_OR_RETURN(FIFOQueue * out,
                                 rm.LookupOrCreateQueue(DotOut(w)));
          ScopedSpan span("runtime.queue/Enqueue");
          TFHPC_RETURN_IF_ERROR(out->Enqueue(Tensor::Scalar(sum), token));
        }
        if (round == 1) rsnew = sum;
      }
      if (rsnew < tol) break;
    }
    return Status::OK();
  }

  // One worker's CG loop, call for call as apps::RunCgFunctional.
  Status Work(int w, const Tensor& b, double rs0, double tol,
              CancellationToken* token, Tensor* x_out, int* iters) {
    Worker& wk = workers_[w];
    Session& session = *wk.session;
    RemoteTask& ps = *wk.ps;
    Tensor x(DType::kF64, Shape{kCgN}), r = b.Clone(), p = b.Clone();
    double rsold = rs0;
    auto segment = [&](const Tensor& vec) {
      Tensor s(DType::kF64, Shape{kCgRows});
      std::memcpy(s.raw_data(), vec.data<double>().data() + w * kCgRows,
                  kCgRows * 8);
      return s;
    };
    auto enqueue = [&](const std::string& q, const Tensor& t) {
      ScopedSpan span("distrib.client/Enqueue");
      return ps.Enqueue(q, t, 0, token);
    };
    auto dequeue = [&](const std::string& q) {
      ScopedSpan span("distrib.client/Dequeue");
      return ps.Dequeue(q, 0, token);
    };
    int it = 0;
    while (it < kCgMaxIterations) {
      TFHPC_ASSIGN_OR_RETURN(std::vector<Tensor> mv,
                             TracedRun(session, {{"p", p}}, {wk.g.ap}));
      TFHPC_RETURN_IF_ERROR(enqueue(ApIn(w), mv[0]));
      TFHPC_ASSIGN_OR_RETURN(Tensor full_ap, dequeue(ApOut(w)));

      TFHPC_ASSIGN_OR_RETURN(
          std::vector<Tensor> pap_part,
          TracedRun(session, {{"u", segment(p)}, {"v", mv[0]}}, {wk.g.dot}));
      TFHPC_RETURN_IF_ERROR(enqueue(DotIn(w), pap_part[0]));
      TFHPC_ASSIGN_OR_RETURN(Tensor pap_t, dequeue(DotOut(w)));
      const double alpha = rsold / pap_t.scalar<double>();

      TFHPC_ASSIGN_OR_RETURN(
          std::vector<Tensor> xn,
          TracedRun(session,
                    {{"alpha", Tensor::Scalar(alpha)}, {"ax", p}, {"ay", x}},
                    {wk.g.axpy}));
      x = xn[0];
      TFHPC_ASSIGN_OR_RETURN(
          std::vector<Tensor> rn,
          TracedRun(session,
                    {{"alpha", Tensor::Scalar(-alpha)},
                     {"ax", full_ap},
                     {"ay", r}},
                    {wk.g.axpy}));
      r = rn[0];

      TFHPC_ASSIGN_OR_RETURN(
          std::vector<Tensor> rr_part,
          TracedRun(session, {{"u", segment(r)}, {"v", segment(r)}},
                    {wk.g.dot}));
      TFHPC_RETURN_IF_ERROR(enqueue(DotIn(w), rr_part[0]));
      TFHPC_ASSIGN_OR_RETURN(Tensor rsnew_t, dequeue(DotOut(w)));
      const double rsnew = rsnew_t.scalar<double>();

      TFHPC_ASSIGN_OR_RETURN(
          std::vector<Tensor> pn,
          TracedRun(session,
                    {{"alpha", Tensor::Scalar(rsnew / rsold)},
                     {"ax", p},
                     {"ay", r}},
                    {wk.g.axpy}));
      p = pn[0];
      rsold = rsnew;
      ++it;
      if (rsnew < tol) break;
    }
    *x_out = x;
    *iters = it;
    return Status::OK();
  }

  Tensor a_;
  std::optional<io::TileStore> store_;
  Cluster cluster_;
  distrib::Server* ps_server_ = nullptr;
  std::vector<Worker> workers_;
  std::atomic<int64_t> iterations_{0};
  Tensor last_b_, last_x_;
  int last_iters_ = 0;
  uint64_t last_index_ = 0;
  std::map<uint64_t, std::pair<Tensor, int>> kept_;
};

// ============================================================================
// matmul_tiled
// ============================================================================

constexpr int64_t kMmN = 2048;
constexpr int64_t kMmTile = 512;
constexpr int64_t kMmGrid = kMmN / kMmTile;
constexpr int kMmWorkers = 2;
constexpr int kMmReducers = 2;
constexpr int kMmSamples = 64;  // output entries checked per multiply

// A result tile travels to its reducer as a serialized (i, j, TensorProto)
// triple in a u8 tensor — the wire format of apps::RunTiledMatmulFunctional.
Tensor EncodeTaggedTile(int64_t i, int64_t j, const Tensor& tile) {
  std::string buf;
  wire::CodedOutput co(&buf);
  co.WriteUInt64(1, static_cast<uint64_t>(i));
  co.WriteUInt64(2, static_cast<uint64_t>(j));
  co.WriteMessage(3, wire::SerializeTensor(tile));
  Tensor t(DType::kU8, Shape{static_cast<int64_t>(buf.size())});
  std::memcpy(t.raw_data(), buf.data(), buf.size());
  return t;
}

Status DecodeTaggedTile(const Tensor& t, int64_t* i, int64_t* j,
                        Tensor* tile) {
  wire::CodedInput in(t.raw_data(), static_cast<size_t>(t.num_elements()));
  while (!in.AtEnd()) {
    uint32_t field;
    wire::WireType wt;
    TFHPC_RETURN_IF_ERROR(in.ReadTag(&field, &wt));
    uint64_t v = 0;
    if (field == 1) {
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      *i = static_cast<int64_t>(v);
    } else if (field == 2) {
      TFHPC_RETURN_IF_ERROR(in.ReadVarint(&v));
      *j = static_cast<int64_t>(v);
    } else if (field == 3) {
      const uint8_t* d;
      size_t s;
      TFHPC_RETURN_IF_ERROR(in.ReadBytesView(&d, &s));
      TFHPC_ASSIGN_OR_RETURN(*tile, wire::ParseTensor(d, s));
    } else {
      TFHPC_RETURN_IF_ERROR(in.SkipField(wt));
    }
  }
  return Status::OK();
}

class MatmulWorkload : public Base {
 public:
  using Base::Base;

  Status Setup() override {
    a_ = Tensor(DType::kF32, Shape{kMmN, kMmN});
    b_ = Tensor(DType::kF32, Shape{kMmN, kMmN});
    {
      ScopedSpan span("apps/generate");
      FillUniform(a_, Mix(seed_, 1));
      FillUniform(b_, Mix(seed_, 2));
    }
    TFHPC_ASSIGN_OR_RETURN(store_a_,
                           StoreTiles(work_dir_ + "/A", a_, kMmTile, kMmTile));
    TFHPC_ASSIGN_OR_RETURN(store_b_,
                           StoreTiles(work_dir_ + "/B", b_, kMmTile, kMmTile));
    std::vector<std::string> workers, reducers;
    for (int w = 0; w < kMmWorkers; ++w) {
      workers.push_back("w" + std::to_string(w) + ":2222");
    }
    for (int r = 0; r < kMmReducers; ++r) {
      reducers.push_back("r" + std::to_string(r) + ":2222");
    }
    TFHPC_ASSIGN_OR_RETURN(
        distrib::ClusterSpec spec,
        MakeSpec({{"worker", workers}, {"reducer", reducers}}));
    compile_ms_ = 0;
    for (int w = 0; w < kMmWorkers; ++w) {
      TFHPC_ASSIGN_OR_RETURN(distrib::Server * server,
                             cluster_.AddServer({spec, "worker", w, 1}));
      Worker wk;
      Scope scope = Scope(&server->graph()).WithDevice("/gpu:0");
      wk.g = apps::BuildTiledMatmulGraph(scope, kMmTile);
      wk.session = cluster_.AddSession(server);
      TFHPC_RETURN_IF_ERROR(TimedPrepare(*wk.session, {"a", "b"},
                                         {wk.g.product}, {}, &compile_ms_));
      workers_.push_back(wk);
    }
    for (int r = 0; r < kMmReducers; ++r) {
      TFHPC_ASSIGN_OR_RETURN(distrib::Server * server,
                             cluster_.AddServer({spec, "reducer", r, 0}));
      reducer_servers_.push_back(server);
      TFHPC_ASSIGN_OR_RETURN(std::string addr,
                             spec.TaskAddress("reducer", r));
      reducer_addrs_.push_back(addr);
    }
    return Status::OK();
  }

  Result<double> RunUnit(int, uint64_t index) override {
    std::vector<Product> products;
    for (int64_t i = 0; i < kMmGrid; ++i)
      for (int64_t j = 0; j < kMmGrid; ++j)
        for (int64_t k = 0; k < kMmGrid; ++k) products.push_back({i, j, k});
    io::WorkList<Product> dataset(products);
    std::vector<int64_t> expected(kMmReducers, 0);
    for (int64_t i = 0; i < kMmGrid; ++i)
      for (int64_t j = 0; j < kMmGrid; ++j)
        expected[(i * kMmGrid + j) % kMmReducers] += kMmGrid;

    auto token = CancellationToken::WithTimeout(unit_deadline_ms());
    const uint64_t unit = Tracer::current_unit();
    const uint64_t parent = Tracer::current_span();
    std::vector<Status> worker_status(kMmWorkers);
    std::vector<std::thread> worker_threads;
    for (int w = 0; w < kMmWorkers; ++w) {
      worker_threads.emplace_back([&, w] {
        Tracer::SetContext(unit, parent);
        ScopedSpan span("apps/worker");
        worker_status[w] = Work(w, &dataset, token.get());
      });
    }
    std::vector<Status> reducer_status(kMmReducers);
    std::vector<TileMap> reduced(kMmReducers);
    std::vector<std::thread> reducer_threads;
    for (int r = 0; r < kMmReducers; ++r) {
      reducer_threads.emplace_back([&, r] {
        Tracer::SetContext(unit, parent);
        ScopedSpan span("apps/reducer");
        reducer_status[r] = Reduce(r, expected[r], token.get(), &reduced[r]);
      });
    }
    for (auto& t : worker_threads) t.join();
    const bool workers_ok =
        std::all_of(worker_status.begin(), worker_status.end(),
                    [](const Status& s) { return s.ok(); });
    if (!workers_ok) {
      for (distrib::Server* s : reducer_servers_) {
        s->resources().CloseAllQueues();
      }
    }
    for (auto& t : reducer_threads) t.join();
    for (const Status& s : worker_status) TFHPC_RETURN_IF_ERROR(s);
    for (const Status& s : reducer_status) TFHPC_RETURN_IF_ERROR(s);
    last_ = std::move(reduced);
    last_index_ = index;
    const double n = static_cast<double>(kMmN);
    return 2 * n * n * n - n * n;
  }

  // Sampled output entries against a plain f64 triple-loop dot product.
  Status CheckUnit(int) override {
    Philox rng(Mix(seed_, 5000 + last_index_));
    const float* a = a_.data<float>().data();
    const float* b = b_.data<float>().data();
    for (int s = 0; s < kMmSamples; ++s) {
      const Philox::Block bits = rng(static_cast<uint64_t>(s));
      const int64_t i = bits.v[0] % kMmN;
      const int64_t j = bits.v[1] % kMmN;
      const int64_t ti = i / kMmTile, tj = j / kMmTile;
      const TileMap& shard = last_[(ti * kMmGrid + tj) % kMmReducers];
      auto it = shard.find({ti, tj});
      if (it == shard.end()) return Internal("matmul: output tile missing");
      const float got =
          it->second.data<float>()[(i % kMmTile) * kMmTile + j % kMmTile];
      double want = 0;
      for (int64_t k = 0; k < kMmN; ++k) {
        want += static_cast<double>(a[i * kMmN + k]) *
                static_cast<double>(b[k * kMmN + j]);
      }
      if (!(std::abs(got - want) <= 1e-4 * std::max(1.0, std::abs(want)))) {
        return Internal("matmul: C[" + std::to_string(i) + "," +
                        std::to_string(j) + "] = " + std::to_string(got) +
                        ", expected " + std::to_string(want));
      }
    }
    return Status::OK();
  }

  Status Verify() override { return Status::OK(); }  // checked per unit
  Counters Snapshot() const override { return cluster_.Snapshot(); }
  int count_units() const override { return 1; }
  int64_t unit_deadline_ms() const override { return 60000; }
  int signatures() const override { return kMmWorkers; }
  Tensor sample_payload() const override {
    Tensor tile(DType::kF32, Shape{kMmTile, kMmTile});
    std::memcpy(tile.raw_data(), a_.raw_data(), kMmTile * kMmTile * 4);
    return EncodeTaggedTile(0, 0, tile);
  }
  Result<int64_t> LoadInputs() override {
    int64_t bytes = 0;
    for (const io::TileStore* s : {&*store_a_, &*store_b_}) {
      for (int64_t i = 0; i < kMmGrid; ++i) {
        for (int64_t j = 0; j < kMmGrid; ++j) {
          TFHPC_ASSIGN_OR_RETURN(Tensor t, LoadTile(*s, i, j));
          bytes += t.bytes();
        }
      }
    }
    return bytes;
  }
  Result<ProbeOut> Probe() override { return ProbeOut{}; }
  std::string params() const override {
    return "\"n\": 2048, \"tile\": 512, \"dtype\": \"f32\", \"workers\": 2, "
           "\"reducers\": 2, \"protocol\": \"mpi\"";
  }

 private:
  struct Product {
    int64_t i, j, k;
  };
  struct Worker {
    apps::TiledMatmulGraph g;
    Session* session = nullptr;
  };
  using TileMap = std::map<std::pair<int64_t, int64_t>, Tensor>;

  // One worker, call for call as apps::RunTiledMatmulFunctional: load the
  // tile pair, multiply through the graph, push to the target's reducer.
  Status Work(int w, io::WorkList<Product>* dataset,
              CancellationToken* token) {
    const Worker& wk = workers_[w];
    while (auto task = dataset->GetNext()) {
      TFHPC_ASSIGN_OR_RETURN(Tensor ta, LoadTile(*store_a_, task->i, task->k));
      TFHPC_ASSIGN_OR_RETURN(Tensor tb, LoadTile(*store_b_, task->k, task->j));
      TFHPC_ASSIGN_OR_RETURN(
          std::vector<Tensor> out,
          TracedRun(*wk.session, {{"a", ta}, {"b", tb}}, {wk.g.product}));
      const int r = static_cast<int>((task->i * kMmGrid + task->j) %
                                     kMmReducers);
      RemoteTask reducer(&cluster_.router, reducer_addrs_[r],
                         WireProtocol::kMpi);
      Tensor tagged;
      {
        ScopedSpan span("wire/EncodeTile");
        tagged = EncodeTaggedTile(task->i, task->j, out[0]);
      }
      ScopedSpan span("distrib.client/Enqueue");
      TFHPC_RETURN_IF_ERROR(reducer.Enqueue("tiles", tagged, 0, token));
    }
    return Status::OK();
  }

  // One reducer: drain `count` tiles and accumulate them locally.
  Status Reduce(int r, int64_t count, CancellationToken* token,
                TileMap* acc) {
    TFHPC_ASSIGN_OR_RETURN(
        FIFOQueue * queue,
        reducer_servers_[r]->resources().LookupOrCreateQueue("tiles"));
    for (int64_t c = 0; c < count; ++c) {
      Tensor tagged;
      {
        ScopedSpan span("runtime.queue/Dequeue");
        TFHPC_ASSIGN_OR_RETURN(tagged, queue->Dequeue(token));
      }
      int64_t i = -1, j = -1;
      Tensor tile;
      {
        ScopedSpan span("wire/DecodeTile");
        TFHPC_RETURN_IF_ERROR(DecodeTaggedTile(tagged, &i, &j, &tile));
      }
      ScopedSpan span("apps/accumulate");
      auto it = acc->find({i, j});
      if (it == acc->end()) {
        acc->emplace(std::make_pair(i, j), tile.Clone());
      } else {
        auto dst = it->second.mutable_span<float>();
        const auto src = tile.data<float>();
        for (size_t e = 0; e < dst.size(); ++e) dst[e] += src[e];
      }
    }
    return Status::OK();
  }

  Tensor a_, b_;
  std::optional<io::TileStore> store_a_, store_b_;
  Cluster cluster_;
  std::vector<Worker> workers_;
  std::vector<distrib::Server*> reducer_servers_;
  std::vector<std::string> reducer_addrs_;
  std::vector<TileMap> last_;
  uint64_t last_index_ = 0;
};

// ============================================================================
// stream_push
// ============================================================================

constexpr int64_t kStreamElements = int64_t{4} << 20;  // 16 MiB of f32
constexpr int kStreamProbeRuns = 8;

class StreamWorkload : public Base {
 public:
  using Base::Base;

  Status Setup() override {
    // Values k/256 (k < 256): every partial sum rounds * update is exact in
    // f32, so the gate can demand equality.
    Tensor matrix(DType::kF32, Shape{1, kStreamElements});
    {
      ScopedSpan span("apps/generate");
      FillUniform(matrix, Mix(seed_, 3));
      for (float& v : matrix.mutable_span<float>()) {
        v = std::floor(v * 256.0f) / 256.0f;
      }
    }
    TFHPC_ASSIGN_OR_RETURN(store_, StoreTiles(work_dir_ + "/u", matrix, 1,
                                              kStreamElements));
    TFHPC_ASSIGN_OR_RETURN(Tensor tile, LoadTile(*store_, 0, 0));
    TFHPC_ASSIGN_OR_RETURN(update_, tile.Reshape(Shape{kStreamElements}));

    // A 2-task cluster resolved the way a Slurm job would (paper §III).
    cluster::SlurmClusterResolver resolver({{"ps", 1}, {"worker", 1}},
                                           "t01n[01-02]", 1, 1);
    TFHPC_ASSIGN_OR_RETURN(wire::ClusterDef def, resolver.ClusterSpec());
    TFHPC_ASSIGN_OR_RETURN(distrib::ClusterSpec spec,
                           distrib::ClusterSpec::Create(def));
    TFHPC_ASSIGN_OR_RETURN(ps_, cluster_.AddServer({spec, "ps", 0, 0}));
    TFHPC_RETURN_IF_ERROR(
        cluster_.AddServer({spec, "worker", 0, 1}).status());
    TFHPC_ASSIGN_OR_RETURN(std::string ps_addr, spec.TaskAddress("ps", 0));
    ps_client_ = std::make_unique<RemoteTask>(&cluster_.router, ps_addr,
                                              WireProtocol::kGrpc);
    return Status::OK();
  }

  Result<double> RunUnit(int, uint64_t) override {
    {
      ScopedSpan span("distrib.client/VarAssignAdd");
      TFHPC_RETURN_IF_ERROR(ps_client_->VarAssignAdd("stream", update_));
    }
    rounds_.fetch_add(1);
    return static_cast<double>(kStreamElements);  // one add per element
  }

  Status CheckUnit(int) override { return Status::OK(); }

  // The ps variable must equal rounds * update, exactly.
  Status Verify() override {
    TFHPC_ASSIGN_OR_RETURN(Tensor total, ps_client_->VarRead("stream"));
    if (total.num_elements() != kStreamElements) {
      return Internal("stream: ps variable has the wrong length");
    }
    const float rounds = static_cast<float>(rounds_.load());
    const auto u = update_.data<float>();
    const auto t = total.data<float>();
    for (int64_t i = 0; i < kStreamElements; ++i) {
      if (t[i] != rounds * u[i]) {
        return Internal("stream: element " + std::to_string(i) + " is " +
                        std::to_string(t[i]) + ", expected " +
                        std::to_string(rounds * u[i]));
      }
    }
    return Status::OK();
  }

  Counters Snapshot() const override { return cluster_.Snapshot(); }
  int count_units() const override { return 4; }
  int64_t unit_deadline_ms() const override { return 20000; }
  int signatures() const override { return 2; }  // the probe's two targets
  Tensor sample_payload() const override { return update_; }
  Result<int64_t> LoadInputs() override {
    TFHPC_ASSIGN_OR_RETURN(Tensor t, LoadTile(*store_, 0, 0));
    return t.bytes();
  }

  // The session layer on the same push: the paper's Listing 2 graph
  // (apps::BuildStreamPushGraph) run on the ps task, fed the update.
  Result<ProbeOut> Probe() override {
    Scope scope(&ps_->graph());
    const apps::StreamGraph g =
        apps::BuildStreamPushGraph(scope, kStreamElements);
    Session* session = cluster_.AddSession(ps_);
    Tensor src(DType::kF64, Shape{kStreamElements});
    const auto u = update_.data<float>();
    double* d = src.mutable_data<double>();
    for (int64_t i = 0; i < kStreamElements; ++i) d[i] = u[i];
    compile_ms_ = 0;
    TFHPC_RETURN_IF_ERROR(
        TimedPrepare(*session, {g.src}, {}, {g.init}, &compile_ms_));
    TFHPC_RETURN_IF_ERROR(
        TimedPrepare(*session, {g.src}, {}, {g.add}, &compile_ms_));
    TFHPC_RETURN_IF_ERROR(
        TracedRun(*session, {{g.src, src}}, {}, {g.init}).status());
    for (int k = 0; k < kStreamProbeRuns; ++k) {
      TFHPC_RETURN_IF_ERROR(
          TracedRun(*session, {{g.src, src}}, {}, {g.add}).status());
    }
    return ProbeOut{};
  }

  std::string params() const override {
    return "\"elements\": 4194304, \"dtype\": \"f32\", \"bytes\": 16777216, "
           "\"protocol\": \"grpc\", \"llc_note\": \"300 MiB L3 makes 4x LLC "
           "infeasible; bytes are as computed\"";
  }

 private:
  std::optional<io::TileStore> store_;
  Tensor update_;
  Cluster cluster_;
  distrib::Server* ps_ = nullptr;
  std::unique_ptr<RemoteTask> ps_client_;
  std::atomic<int64_t> rounds_{0};
};

// ============================================================================
// serving_step
// ============================================================================

constexpr int64_t kFeedLength = 64;
constexpr int64_t kFeedPool = 256;
constexpr int kServingClients = 4;

class ServingWorkload : public Base {
 public:
  using Base::Base;

  Status Setup() override {
    Tensor pool(DType::kF64, Shape{kFeedPool, kFeedLength});
    {
      ScopedSpan span("apps/generate");
      FillUniform(pool, Mix(seed_, 4), -1.0, 1.0);
    }
    TFHPC_ASSIGN_OR_RETURN(store_, StoreTiles(work_dir_ + "/feeds", pool,
                                              kFeedPool, kFeedLength));
    TFHPC_ASSIGN_OR_RETURN(Tensor loaded, LoadTile(*store_, 0, 0));
    feeds_.clear();
    for (int64_t f = 0; f < kFeedPool; ++f) {
      Tensor feed(DType::kF64, Shape{kFeedLength});
      std::memcpy(feed.raw_data(),
                  loaded.data<double>().data() + f * kFeedLength,
                  kFeedLength * 8);
      feeds_.push_back(std::move(feed));
    }

    TFHPC_ASSIGN_OR_RETURN(distrib::ClusterSpec spec,
                           MakeSpec({{"worker", {"serve:1"}}}));
    distrib::ServerDef sdef{spec, "worker", 0, 0};
    sdef.max_inflight_steps = 2;
    sdef.serving.max_queued = 2 * kServingClients;  // queues, never sheds
    sdef.serving.retry_after_ms = 5;
    TFHPC_RETURN_IF_ERROR(cluster_.AddServer(sdef).status());

    // The serving_load signature: one feed, a Mul and 8 Adds (y = 512 x).
    Graph graph;
    Scope s(&graph);
    auto x = ops::Placeholder(s, DType::kF64, Shape{kFeedLength}, "x");
    auto two = ops::Const(s, Tensor::Scalar(2.0));
    auto y = ops::Mul(s, x, two);
    for (int i = 0; i < 8; ++i) y = ops::Add(s, y, y);
    fetch_ = y.name();
    RemoteTask setup(&cluster_.router, "serve:1", WireProtocol::kRdma);
    TFHPC_RETURN_IF_ERROR(setup.ExtendGraph(graph.ToGraphDef()));
    {
      ScopedSpan span("runtime.session/RegisterStep");
      const int64_t t0 = NowNs();
      TFHPC_ASSIGN_OR_RETURN(handle_, setup.RegisterStep({"x"}, {fetch_}));
      compile_ms_ = MsSince(t0);
    }
    clients_.clear();
    for (int c = 0; c < kServingClients; ++c) {
      // Each client has its own RemoteTask, so its own client id, which is
      // what the fair admission queue keys on.
      clients_.push_back(std::make_unique<RemoteTask>(
          &cluster_.router, "serve:1", WireProtocol::kRdma));
    }
    last_.assign(kServingClients, {});
    return Status::OK();
  }

  int clients() const override { return kServingClients; }

  Result<double> RunUnit(int client, uint64_t index) override {
    const Tensor& feed = feeds_[index % kFeedPool];
    auto token = CancellationToken::WithTimeout(unit_deadline_ms());
    Result<std::vector<Tensor>> out = [&] {
      ScopedSpan span("distrib.client/RunRegisteredStep");
      return clients_[client]->RunRegisteredStep(handle_, {{"x", feed}},
                                                 false, token.get());
    }();
    TFHPC_RETURN_IF_ERROR(out.status());
    last_[client] = {feed, std::move(out.value())};
    return 9.0 * kFeedLength;  // one Mul and eight Adds
  }

  // Every fetch must equal 512 x exactly.
  Status CheckUnit(int client) override {
    const auto& [feed, out] = last_[client];
    if (out.size() != 1 || out[0].num_elements() != kFeedLength) {
      return Internal("serving: wrong fetch shape");
    }
    const auto x = feed.data<double>();
    const auto y = out[0].data<double>();
    for (int64_t i = 0; i < kFeedLength; ++i) {
      if (y[i] != 512.0 * x[i]) {
        return Internal("serving: fetch element " + std::to_string(i) +
                        " is not 512 x");
      }
    }
    return Status::OK();
  }

  bool fatal_failures() const override { return false; }
  Status Verify() override { return Status::OK(); }  // checked per unit
  Counters Snapshot() const override { return cluster_.Snapshot(); }
  int count_units() const override { return 64; }
  int64_t unit_deadline_ms() const override { return 5000; }
  int signatures() const override { return 1; }
  Tensor sample_payload() const override { return feeds_[0]; }
  Result<int64_t> LoadInputs() override {
    TFHPC_ASSIGN_OR_RETURN(Tensor t, LoadTile(*store_, 0, 0));
    return t.bytes();
  }

  // A 1-client pass for the unloaded step latency.
  Result<ProbeOut> Probe() override {
    std::vector<double> us;
    const int64_t end = NowNs() + 500'000'000;
    for (uint64_t i = 0; NowNs() < end; ++i) {
      const int64_t t0 = NowNs();
      TFHPC_ASSIGN_OR_RETURN(
          auto out, clients_[0]->RunRegisteredStep(
                        handle_, {{"x", feeds_[i % kFeedPool]}}));
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    std::sort(us.begin(), us.end());
    ProbeOut p;
    p.unloaded_send_us_p50 = us[us.size() / 2];
    return p;
  }

  std::string params() const override {
    return "\"feed\": \"64 x f64\", \"graph\": \"Mul + 8 Add\", "
           "\"clients\": 4, \"max_inflight_steps\": 2, \"max_queued\": 8, "
           "\"protocol\": \"rdma\"";
  }

 private:
  std::optional<io::TileStore> store_;
  std::vector<Tensor> feeds_;
  Cluster cluster_;
  std::string fetch_;
  uint64_t handle_ = 0;
  std::vector<std::unique_ptr<RemoteTask>> clients_;
  std::vector<std::pair<Tensor, std::vector<Tensor>>> last_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "matmul_tiled", "stream_push"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& work_dir) {
  if (name == "cg_poisson") return std::make_unique<CgWorkload>(seed, work_dir);
  if (name == "matmul_tiled") {
    return std::make_unique<MatmulWorkload>(seed, work_dir);
  }
  if (name == "stream_push") {
    return std::make_unique<StreamWorkload>(seed, work_dir);
  }
  if (name == "serving_step") {
    return std::make_unique<ServingWorkload>(seed, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
