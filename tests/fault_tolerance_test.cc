// Fault-tolerance layer tests: chaos transport schedules (drop / delay /
// duplicate / corrupt / partition), retry policies with deadlines,
// server-side request dedup (exactly-once for non-idempotent ops) and
// DistributedSession step-level recovery with checkpoint restore.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/rng.h"
#include "distrib/dist_session.h"
#include "distrib/server.h"
#include "graph/ops.h"

namespace tfhpc::distrib {
namespace {

wire::ClusterDef FtCluster() {
  wire::ClusterDef def;
  wire::JobDef ps;
  ps.name = "ps";
  ps.task_addrs = {"ft-ps:1"};
  wire::JobDef workers;
  workers.name = "worker";
  workers.task_addrs = {"ft-w0:1", "ft-w1:1"};
  def.jobs = {ps, workers};
  return def;
}

DeviceName WorkerDev() {
  DeviceName d;
  d.job = "worker";
  d.task = 0;
  return d;
}

// Chaos profile from the acceptance criteria: drops + duplicates + delays
// at >= 10% aggregate fault rate, deterministic in the seed.
ChaosConfig AcceptanceChaos(uint64_t seed) {
  ChaosConfig chaos;
  chaos.seed = seed;
  chaos.drop_request_rate = 0.05;
  chaos.drop_response_rate = 0.05;
  chaos.duplicate_rate = 0.05;
  chaos.delay_rate = 0.05;
  chaos.max_delay_ms = 2;
  chaos.corrupt_rate = 0.03;
  return chaos;
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = std::make_unique<ClusterSpec>(
        ClusterSpec::Create(FtCluster()).value());
    RetryPolicy send_retry = RetryPolicy::Aggressive(5000);
    ServerDef ps_def{*spec_, "ps", 0, 0};
    ServerDef w0_def{*spec_, "worker", 0, 0};
    ServerDef w1_def{*spec_, "worker", 1, 0};
    ps_def.send_retry = w0_def.send_retry = w1_def.send_retry = send_retry;
    ps_ = Server::Create(ps_def, &router_).value();
    w0_ = Server::Create(w0_def, &router_).value();
    w1_ = Server::Create(w1_def, &router_).value();
  }

  InProcessRouter router_;
  std::unique_ptr<ClusterSpec> spec_;
  std::unique_ptr<Server> ps_, w0_, w1_;
};

// ---- retry policy unit behaviour ------------------------------------------------

TEST(RetryPolicyTest, RetryableCodeClassification) {
  EXPECT_TRUE(IsRetryableCode(Code::kUnavailable));
  EXPECT_FALSE(IsRetryableCode(Code::kInvalidArgument));
  EXPECT_FALSE(IsRetryableCode(Code::kNotFound));
  EXPECT_FALSE(IsRetryableCode(Code::kResourceExhausted));
  EXPECT_FALSE(IsRetryableCode(Code::kCancelled));
  EXPECT_FALSE(IsRetryableCode(Code::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryableCode(Code::kOk));
}

TEST(RetryPolicyTest, RetriesUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_ms = 0;
  int calls = 0;
  int64_t retries = 0;
  Status st = CallWithRetry(
      policy, 1,
      [&]() -> Status {
        return ++calls < 4 ? Unavailable("flaky") : Status::OK();
      },
      &retries);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retries, 3);
}

TEST(RetryPolicyTest, NonRetryableSurfacesImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  int calls = 0;
  Status st = CallWithRetry(policy, 1, [&]() -> Status {
    ++calls;
    return InvalidArgument("bad");
  });
  EXPECT_EQ(st.code(), Code::kInvalidArgument);
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, AttemptBudgetReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  int calls = 0;
  Status st = CallWithRetry(policy, 1, [&]() -> Status {
    ++calls;
    return Unavailable("always down");
  });
  EXPECT_EQ(st.code(), Code::kUnavailable);
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, DeadlineExpiryReturnsDeadlineExceeded) {
  RetryPolicy policy = RetryPolicy::Aggressive(/*deadline_ms=*/150);
  const auto start = std::chrono::steady_clock::now();
  Status st = CallWithRetry(policy, 1,
                            [&]() -> Status { return Unavailable("down"); });
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(st.code(), Code::kDeadlineExceeded);
  EXPECT_LT(elapsed, 5000) << "deadline must bound the retry loop";
}

// ---- chaos transport ------------------------------------------------------------

TEST(ChaosTransportTest, ScheduleIsDeterministicInSeed) {
  // Two routers with the same seed inject the identical fault sequence.
  auto run_schedule = [](uint64_t seed) {
    InProcessRouter router;
    EXPECT_TRUE(router
                    .Register("c:1",
                              [](const wire::RpcEnvelope& req) {
                                wire::RpcEnvelope resp;
                                resp.request_id = req.request_id;
                                return resp;
                              })
                    .ok());
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.drop_request_rate = 0.2;
    chaos.duplicate_rate = 0.1;
    router.EnableChaos(chaos);
    std::vector<bool> dropped;
    for (int i = 0; i < 64; ++i) {
      wire::RpcEnvelope req;
      req.method = "Ping";
      dropped.push_back(!router.Call("c:1", WireProtocol::kRdma, req).ok());
    }
    return dropped;
  };
  EXPECT_EQ(run_schedule(7), run_schedule(7));
  EXPECT_NE(run_schedule(7), run_schedule(8));
}

TEST(ChaosTransportTest, StatsCountFaultsPerProtocolAndReset) {
  InProcessRouter router;
  ASSERT_TRUE(router
                  .Register("c:1",
                            [](const wire::RpcEnvelope& req) {
                              wire::RpcEnvelope resp;
                              resp.request_id = req.request_id;
                              return resp;
                            })
                  .ok());
  ChaosConfig chaos;
  chaos.seed = 99;
  chaos.drop_request_rate = 0.5;
  router.EnableChaos(chaos);
  for (int i = 0; i < 100; ++i) {
    wire::RpcEnvelope req;
    req.method = "Ping";
    (void)router.Call("c:1", WireProtocol::kGrpc, req);
  }
  const TransportStats& st = router.stats(WireProtocol::kGrpc);
  EXPECT_GT(st.faults_dropped_request.load(), 20);
  EXPECT_LT(st.faults_dropped_request.load(), 80);
  EXPECT_EQ(router.stats(WireProtocol::kRdma).total_faults(), 0);

  router.ResetStats();
  EXPECT_EQ(st.calls.load(), 0);
  EXPECT_EQ(st.total_faults(), 0);
}

TEST_F(FaultToleranceTest, KilledTaskRefusesCallsUntilRevived) {
  RemoteTask ps(&router_, "ft-ps:1", WireProtocol::kRdma);
  ASSERT_TRUE(ps.Ping().ok());
  router_.Kill("ft-ps:1");
  EXPECT_TRUE(router_.IsKilled("ft-ps:1"));
  EXPECT_EQ(ps.Ping().code(), Code::kUnavailable);
  // Other tasks are unaffected.
  EXPECT_TRUE(RemoteTask(&router_, "ft-w0:1", WireProtocol::kRdma).Ping().ok());
  router_.Revive("ft-ps:1");
  EXPECT_TRUE(ps.Ping().ok());
  EXPECT_GT(router_.stats(WireProtocol::kRdma).faults_kill_refused.load(), 0);
}

TEST_F(FaultToleranceTest, CorruptedPayloadIsRejectedNotApplied) {
  ChaosConfig chaos;
  chaos.seed = 5;
  chaos.corrupt_rate = 1.0;  // corrupt every call
  router_.EnableChaos(chaos);
  RemoteTask ps(&router_, "ft-ps:1", WireProtocol::kGrpc);
  auto st = ps.VarAssign("x", Tensor::Scalar(1.0));
  EXPECT_EQ(st.code(), Code::kUnavailable);
  EXPECT_GT(ps_->checksum_rejects(), 0);
  router_.DisableChaos();
  // The corrupted write was never applied.
  EXPECT_EQ(ps.VarRead("x").status().code(), Code::kFailedPrecondition);
}

// The same contract for a tensor-sized view payload: the corruptor flips the
// middle byte, which now lands mid-stripe in the tensor body rather than in
// the header, on the protocols that stage the body as bytes. With 3 MiB of
// content the checksum hashes four chunk digests taken across the pool, and
// the corrupted byte lies in the second chunk.
TEST_F(FaultToleranceTest, CorruptedViewPayloadIsRejectedNotApplied) {
  for (int64_t elements : {int64_t{1} << 18, int64_t{3} << 18}) {
    Tensor big(DType::kF32, Shape{elements});
    FillUniform(big, 13);
    for (WireProtocol p : {WireProtocol::kMpi, WireProtocol::kGrpc}) {
      ChaosConfig chaos;
      chaos.seed = 5;
      chaos.corrupt_rate = 1.0;
      router_.EnableChaos(chaos);
      const int64_t rejects = ps_->checksum_rejects();
      RemoteTask ps(&router_, "ft-ps:1", p);
      const std::string var = "big_" + std::to_string(elements) + "_" +
                              WireProtocolName(p);
      EXPECT_EQ(ps.VarAssign(var, big).code(), Code::kUnavailable) << var;
      EXPECT_GT(ps_->checksum_rejects(), rejects) << var;
      router_.DisableChaos();
      EXPECT_EQ(ps.VarRead(var).status().code(), Code::kFailedPrecondition)
          << var;
    }
  }
}

// ---- exactly-once under retry + duplication -------------------------------------

TEST_F(FaultToleranceTest, LostResponseRetryDoesNotDoubleApply) {
  // Every first response is dropped; with retry the op must apply once, not
  // once per attempt.
  ChaosConfig chaos;
  chaos.seed = 11;
  chaos.drop_response_rate = 0.5;
  router_.EnableChaos(chaos);

  RemoteTask ps(&router_, "ft-ps:1", WireProtocol::kRdma,
                RetryPolicy::Aggressive(10000));
  const int kPushes = 50;
  for (int i = 0; i < kPushes; ++i) {
    ASSERT_TRUE(ps.VarAssignAdd("acc", Tensor::Scalar(1.0)).ok());
  }
  router_.DisableChaos();
  EXPECT_DOUBLE_EQ(ps.VarRead("acc")->scalar<double>(),
                   static_cast<double>(kPushes));
  // The chaos dropped some responses, so some retries replayed from cache.
  EXPECT_GT(ps.retries(), 0);
  EXPECT_GT(ps_->dedup_hits(), 0);
}

TEST_F(FaultToleranceTest, DuplicatedEnqueueAppliesOnce) {
  ChaosConfig chaos;
  chaos.seed = 23;
  chaos.duplicate_rate = 1.0;  // every request delivered twice
  router_.EnableChaos(chaos);

  RemoteTask ps(&router_, "ft-ps:1", WireProtocol::kMpi);
  const int kItems = 10;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(
        ps.Enqueue("dupq", Tensor::Scalar(static_cast<double>(i))).ok());
  }
  router_.DisableChaos();
  ASSERT_TRUE(ps.CloseQueue("dupq").ok());
  // Exactly kItems survive (each duplicate was deduped), in order.
  for (int i = 0; i < kItems; ++i) {
    auto r = ps.Dequeue("dupq");
    ASSERT_TRUE(r.ok()) << "item " << i;
    EXPECT_DOUBLE_EQ(r->scalar<double>(), static_cast<double>(i));
  }
  EXPECT_EQ(ps.Dequeue("dupq").status().code(), Code::kOutOfRange);
  EXPECT_GE(ps_->dedup_hits(), kItems);
}

// ---- the acceptance scenario: STREAM + matmul step under chaos -------------------

TEST_F(FaultToleranceTest, ChaoticStreamStepMatchesFaultFreeRun) {
  // The paper's STREAM push: workers assign_add partial sums into a PS
  // variable. Run it fault-free, then replay under a seeded chaos schedule
  // (drops + duplicates + delays + corruption >= 10% aggregate) — the final
  // variable must be numerically identical.
  auto run_stream = [&](const std::string& var, bool chaotic) -> double {
    if (chaotic) router_.EnableChaos(AcceptanceChaos(20260806));
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back([&, w] {
        RemoteTask ps(&router_, "ft-ps:1", WireProtocol::kRdma,
                      RetryPolicy::Aggressive(20000));
        for (int i = 0; i < 40; ++i) {
          Tensor delta = Tensor::FromVector(
              std::vector<double>{1.0 * (w + 1), 0.5 * (i + 1)});
          ASSERT_TRUE(ps.VarAssignAdd(var, delta).ok());
        }
      });
    }
    for (auto& t : workers) t.join();
    if (chaotic) router_.DisableChaos();
    RemoteTask reader(&router_, "ft-ps:1", WireProtocol::kRdma,
                      RetryPolicy::Aggressive(20000));
    auto v = reader.VarRead(var);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v->data<double>()[0] + v->data<double>()[1];
  };

  const double clean = run_stream("stream_clean", false);
  const double chaotic = run_stream("stream_chaos", true);
  EXPECT_DOUBLE_EQ(clean, chaotic);
  // The schedule actually faulted a nontrivial share of the traffic.
  EXPECT_GT(router_.stats(WireProtocol::kRdma).total_faults(), 5);
}

TEST_F(FaultToleranceTest, ChaoticMatmulStepMatchesFaultFreeRun) {
  // A cross-task matmul pipeline (x@w1 on worker 0, @w2 on worker 1) run
  // through DistributedSession, fault-free vs chaotic: identical outputs.
  const int64_t n = 12;
  Tensor x(DType::kF32, Shape{n, n});
  Tensor w1(DType::kF32, Shape{n, n});
  Tensor w2(DType::kF32, Shape{n, n});
  FillUniform(x, 101);
  FillUniform(w1, 102, -0.1, 0.1);
  FillUniform(w2, 103, -0.1, 0.1);

  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto h = ops::MatMul(t0, ops::Const(t0, x), ops::Const(t0, w1));
  auto y = ops::MatMul(t1, h, ops::Const(t1, w2));

  auto session =
      DistributedSession::Create(&router_, *spec_, WireProtocol::kRdma,
                                 g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto clean = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // A single step issues only a handful of RPCs (two RunSteps plus one
  // rendezvous send), so run several chaotic steps to give the 23% schedule
  // a wide enough window that drawing zero faults is astronomically unlikely.
  router_.EnableChaos(AcceptanceChaos(424242));
  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 8;
  recovery.rpc_retry = RetryPolicy::Aggressive(20000);
  const auto want = (*clean)[0].data<float>();
  for (int step = 0; step < 8; ++step) {
    FaultReport report;
    auto chaotic = (*session)->Run({}, {y.name()}, recovery, &report);
    ASSERT_TRUE(chaotic.ok()) << "step " << step << ": "
                              << chaotic.status().ToString() << " "
                              << report.ToString();
    const auto got = (*chaotic)[0].data<float>();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i])
          << "step " << step << " index " << i;  // bitwise identical
    }
  }
  router_.DisableChaos();
  EXPECT_GT(router_.chaos_calls(), 20);
  EXPECT_GT(router_.stats(WireProtocol::kRdma).total_faults(), 0);
}

// ---- deadlines: a lost rank fails the step, never hangs it -----------------------

TEST_F(FaultToleranceTest, KilledTaskFailsRunWithDeadlineNotHang) {
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(5.0), "a");
  auto y = ops::Mul(t1, a, ops::Const(t1, Tensor::Scalar(2.0)));

  auto session =
      DistributedSession::Create(&router_, *spec_, WireProtocol::kRdma,
                                 g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  router_.Kill("ft-w0:1");
  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 2;
  recovery.rpc_retry = RetryPolicy::Aggressive(/*deadline_ms=*/300);
  FaultReport report;
  const auto start = std::chrono::steady_clock::now();
  auto r = (*session)->Run({}, {y.name()}, recovery, &report);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_EQ(report.final_status.code(), Code::kDeadlineExceeded);
  EXPECT_EQ(report.failed_partition, "ft-w0:1");
  EXPECT_EQ(report.step_attempts, 2);
  EXPECT_FALSE(report.recovered);
  // Two attempts, each deadline-bounded at 300ms, plus overhead: well under
  // a hang. Generous bound for slow CI.
  EXPECT_LT(elapsed_ms, 10000);

  // Revive and re-run: the session recovered its tasks (abort/reset) and
  // the same step now succeeds.
  router_.Revive("ft-w0:1");
  auto r2 = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 10.0);
}

// ---- step-level recovery with checkpoint restore ---------------------------------

TEST_F(FaultToleranceTest, StepRecoveryRestoresVariablesAndReruns) {
  // The step accumulates into a task-0 variable (AssignAdd) and fetches the
  // result on task 1. A transient fault mid-step would double-accumulate on
  // blind re-run; checkpoint restore makes the re-run start from the
  // pre-step value, so the recovered result equals the fault-free one.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto v = ops::Variable(t0, "acc", DType::kF64, Shape{});
  auto bump = ops::AssignAdd(t0, v, ops::Const(t0, Tensor::Scalar(1.0)));
  auto y = ops::Mul(t1, bump, ops::Const(t1, Tensor::Scalar(10.0)));

  auto session =
      DistributedSession::Create(&router_, *spec_, WireProtocol::kRdma,
                                 g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Initialize acc = 5 on worker 0.
  RemoteTask w0(&router_, "ft-w0:1", WireProtocol::kRdma);
  ASSERT_TRUE(w0.VarAssign("acc", Tensor::Scalar(5.0)).ok());

  const std::string ckpt =
      ::testing::TempDir() + "/ft_step_recovery.ckpt";
  std::remove(ckpt.c_str());

  // Worker 0's step application fails once (after the AssignAdd may have
  // run), then works. Recovery must restore acc=5 before the re-run.
  router_.InjectFault("ft-w1:1", "RunStep", Unavailable("rank lost"), 1);
  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 3;
  recovery.rpc_retry = RetryPolicy::NoRetry();  // force step-level path
  recovery.checkpoint_path = ckpt;
  FaultReport report;
  auto r = (*session)->Run({}, {y.name()}, recovery, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();

  // Exactly one effective increment: (5+1)*10.
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 60.0);
  EXPECT_DOUBLE_EQ(w0.VarRead("acc")->scalar<double>(), 6.0);
  EXPECT_TRUE(report.recovered);
  EXPECT_TRUE(report.checkpoint_saved);
  EXPECT_GT(report.variables_restored, 0);
  EXPECT_EQ(report.step_attempts, 2);
  EXPECT_EQ(report.first_error.code(), Code::kUnavailable);
  std::remove(ckpt.c_str());
}

TEST_F(FaultToleranceTest, SemanticErrorsAreNotRetriedAtStepLevel) {
  Graph g;
  Scope s(&g);
  ops::Const(s.WithDevice("/job:worker/task:0/cpu:0"), Tensor::Scalar(1.0),
             "c");
  auto session =
      DistributedSession::Create(&router_, *spec_, WireProtocol::kRdma,
                                 g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok());
  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 5;
  FaultReport report;
  auto r = (*session)->Run({}, {"ghost"}, recovery, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(report.step_attempts, 1) << "NotFound must not be re-attempted";
}

// ---- VarSnapshot / VarRestore wire surface --------------------------------------

TEST_F(FaultToleranceTest, VarSnapshotRoundTripsThroughRestore) {
  RemoteTask ps(&router_, "ft-ps:1", WireProtocol::kGrpc);
  ASSERT_TRUE(ps.VarAssign("a", Tensor::Scalar(1.5)).ok());
  ASSERT_TRUE(
      ps.VarAssign("b", Tensor::FromVector(std::vector<double>{1, 2, 3}))
          .ok());
  auto snap = ps.VarSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->size(), 2u);

  ASSERT_TRUE(ps.VarAssign("a", Tensor::Scalar(-9.0)).ok());
  ASSERT_TRUE(ps.VarRestore(*snap).ok());
  EXPECT_DOUBLE_EQ(ps.VarRead("a")->scalar<double>(), 1.5);
  EXPECT_DOUBLE_EQ(ps.VarRead("b")->data<double>()[2], 3.0);
}

// ---- job-level recovery: eviction, spare replacement, shrink, watchdog ----------

ClusterSpec WorkerCluster(const std::vector<std::string>& addrs) {
  wire::ClusterDef def;
  wire::JobDef workers;
  workers.name = "worker";
  workers.task_addrs = addrs;
  def.jobs = {workers};
  return ClusterSpec::Create(def).value();
}

// Two-worker rig with a hot spare provisioned for slot 1, a lease monitor
// over both workers, and a durable CheckpointManager — everything the
// job-level recovery path consumes. The spare server is created against the
// *rebuilt* cluster spec (spare assumes slot 1) so its devices resolve that
// slot's placements; that is the contract for provisioning standbys.
class JobRecoveryRig {
 public:
  JobRecoveryRig(const std::string& tag, int64_t dead_after_ms = 120)
      : w0_addr_(tag + "-w0:1"),
        w1_addr_(tag + "-w1:1"),
        spare_addr_(tag + "-spare:1"),
        cluster_(WorkerCluster({w0_addr_, w1_addr_})),
        spare_cluster_(WorkerCluster({w0_addr_, spare_addr_})),
        ckpt_dir_(::testing::TempDir() + "/jobrec_" + tag) {
    std::filesystem::remove_all(ckpt_dir_);
    RetryPolicy send_retry = RetryPolicy::Aggressive(1000);
    ServerDef w0{cluster_, "worker", 0, 0};
    ServerDef w1{cluster_, "worker", 1, 0};
    ServerDef spare{spare_cluster_, "worker", 1, 0};
    w0.send_retry = w1.send_retry = spare.send_retry = send_retry;
    w0_ = Server::Create(w0, &router_).value();
    w1_ = Server::Create(w1, &router_).value();
    spare_ = Server::Create(spare, &router_).value();

    HealthOptions health;
    health.heartbeat_interval_ms = 5;
    health.suspect_after_ms = 40;
    health.dead_after_ms = dead_after_ms;
    monitor_ = std::make_unique<HealthMonitor>(&router_, health);
    monitor_->Watch(w0_addr_);
    monitor_->Watch(w1_addr_);
    monitor_->Start();

    checkpoints_ = std::make_unique<io::CheckpointManager>(
        io::CheckpointManagerOptions{ckpt_dir_, "job", 3});
  }

  ~JobRecoveryRig() {
    monitor_->Stop();
    // Drain + destroy the manager before deleting its directory: the async
    // save worker may still be publishing a version into it.
    (void)checkpoints_->WaitForPending();
    checkpoints_.reset();
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir_, ec);
  }

  // acc lives on task 0, sum on task 1; each step does acc += 1 then
  // sum += 10*acc across the task boundary. State on BOTH sides of the
  // rendezvous, so recovery must restore the dead side from the durable
  // checkpoint for results to stay correct.
  std::string BuildGraphAndSession() {
    Graph g;
    Scope s(&g);
    auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
    auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
    auto acc = ops::Variable(t0, "acc", DType::kF64, Shape{});
    auto bump = ops::AssignAdd(t0, acc, ops::Const(t0, Tensor::Scalar(1.0)));
    auto sum = ops::Variable(t1, "sum", DType::kF64, Shape{});
    auto total = ops::AssignAdd(
        t1, sum, ops::Mul(t1, bump, ops::Const(t1, Tensor::Scalar(10.0))));
    DeviceName dev;
    dev.job = "worker";
    dev.task = 0;
    session_ = DistributedSession::Create(&router_, cluster_,
                                          WireProtocol::kRdma, g.ToGraphDef(),
                                          dev)
                   .value();
    EXPECT_TRUE(RemoteTask(&router_, w0_addr_, WireProtocol::kRdma)
                    .VarAssign("acc", Tensor::Scalar(0.0))
                    .ok());
    EXPECT_TRUE(RemoteTask(&router_, w1_addr_, WireProtocol::kRdma)
                    .VarAssign("sum", Tensor::Scalar(0.0))
                    .ok());
    return total.name();
  }

  StepRecoveryOptions Recovery() {
    StepRecoveryOptions r;
    r.max_step_attempts = 3;
    r.rpc_retry = RetryPolicy::Aggressive(500);
    r.health = monitor_.get();
    r.checkpoints = checkpoints_.get();
    r.checkpoint_every_n_steps = 1;
    r.spare_addrs = {spare_addr_};
    r.dead_verdict_wait_ms = 5000;
    return r;
  }

  InProcessRouter router_;
  std::string w0_addr_, w1_addr_, spare_addr_;
  ClusterSpec cluster_, spare_cluster_;
  std::string ckpt_dir_;
  std::unique_ptr<Server> w0_, w1_, spare_;
  std::unique_ptr<HealthMonitor> monitor_;
  std::unique_ptr<io::CheckpointManager> checkpoints_;
  std::unique_ptr<DistributedSession> session_;
};

TEST(JobRecoveryTest, FailStopWorkerIsEvictedOntoSpareAndJobCompletes) {
  JobRecoveryRig rig("js");
  const std::string fetch = rig.BuildGraphAndSession();
  const StepRecoveryOptions recovery = rig.Recovery();

  // Two clean steps, each followed by an async durable checkpoint:
  // acc=1,sum=10 then acc=2,sum=30.
  for (int step = 1; step <= 2; ++step) {
    auto r = rig.session_->Run({}, {fetch}, recovery, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(rig.checkpoints_->WaitForPending().ok());
  ASSERT_GT(rig.checkpoints_->latest_version(), 0);

  // Worker 1 crashes mid-job (fail-stop). The next step must complete with
  // the correct value anyway: lease expiry convicts it, the spare assumes
  // slot 1, durable state is restored, the step re-runs.
  rig.router_.Kill(rig.w1_addr_);
  FaultReport report;
  auto r = rig.session_->Run({}, {fetch}, recovery, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 60.0)
      << "restored acc=2,sum=30, so the re-run step must yield sum=60";

  ASSERT_EQ(report.workers_evicted, 1) << report.ToString();
  EXPECT_EQ(report.worker_faults[0].addr, rig.w1_addr_);
  EXPECT_EQ(report.worker_faults[0].successor, rig.spare_addr_);
  EXPECT_FALSE(report.worker_faults[0].shrunk);
  EXPECT_GT(report.checkpoint_restored_version, 0);
  EXPECT_GE(report.mttr_ms, 0);
  EXPECT_TRUE(report.recovered);

  // The cluster now names the spare in slot 1, and the state lives there.
  EXPECT_TRUE(rig.session_->cluster().FindTask(rig.spare_addr_).ok());
  RemoteTask spare(&rig.router_, rig.spare_addr_, WireProtocol::kRdma);
  EXPECT_DOUBLE_EQ(spare.VarRead("sum")->scalar<double>(), 60.0);

  // And the job keeps stepping on the rebuilt cluster.
  auto r2 = rig.session_->Run({}, {fetch}, recovery, nullptr);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 100.0);  // acc=4, sum=60+40
}

TEST(JobRecoveryTest, HungWorkerIsFencedByWatchdogNotWaitedOnForever) {
  JobRecoveryRig rig("jh");
  const std::string fetch = rig.BuildGraphAndSession();
  StepRecoveryOptions recovery = rig.Recovery();
  recovery.stuck_step_timeout_ms = 200;

  auto warm = rig.session_->Run({}, {fetch}, recovery, nullptr);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(rig.checkpoints_->WaitForPending().ok());

  // Worker 1 wedges: its RPCs block indefinitely (far beyond any step
  // timeout) instead of failing. Without a watchdog this step would sit in
  // the hang for the full 60s cap; with one, the lease expires, the
  // watchdog fences the worker and recovery proceeds.
  rig.router_.Hang(rig.w1_addr_, /*max_block_ms=*/60000);
  const auto start = std::chrono::steady_clock::now();
  FaultReport report;
  auto r = rig.session_->Run({}, {fetch}, recovery, &report);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 30.0);  // acc=1,sum=10 -> 2,30

  EXPECT_LT(elapsed_ms, 20000) << "watchdog must beat the 60s hang cap";
  ASSERT_EQ(report.workers_evicted, 1) << report.ToString();
  EXPECT_EQ(report.worker_faults[0].verdict, "hung");
  EXPECT_EQ(report.worker_faults[0].successor, rig.spare_addr_);
  EXPECT_GT(report.worker_faults[0].detect_ms, 0);
}

TEST(JobRecoveryTest, SlowWorkerIsLeftToFinishNotEvicted) {
  // Hung vs slow: the worker stalls longer than the step timeout but its
  // leases stay comfortably fresh (long windows), so the watchdog must NOT
  // fence it — the step finishes on attempt 1 once the stall clears.
  JobRecoveryRig rig("jw", /*dead_after_ms=*/30000);
  const std::string fetch = rig.BuildGraphAndSession();
  StepRecoveryOptions recovery = rig.Recovery();
  recovery.stuck_step_timeout_ms = 50;
  recovery.rpc_retry = RetryPolicy::Aggressive(10000);

  rig.router_.Hang(rig.w1_addr_, /*max_block_ms=*/60000);
  std::thread unstall([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    rig.router_.Unhang(rig.w1_addr_);
  });
  FaultReport report;
  auto r = rig.session_->Run({}, {fetch}, recovery, &report);
  unstall.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 10.0);
  EXPECT_EQ(report.step_attempts, 1) << "a slow worker is not a fault";
  EXPECT_EQ(report.workers_evicted, 0);
  EXPECT_EQ(rig.monitor_->health(rig.w1_addr_), TaskHealth::kAlive);
}

TEST(JobRecoveryTest, TransientFaultStaysOnStepRetryPathWithoutEviction) {
  JobRecoveryRig rig("jt");
  const std::string fetch = rig.BuildGraphAndSession();
  StepRecoveryOptions recovery = rig.Recovery();
  recovery.rpc_retry = RetryPolicy::NoRetry();  // surface the fault to Run
  recovery.dead_verdict_wait_ms = 300;
  // Step-level retry path: the pre-step snapshot rolls back the half-applied
  // AssignAdd on the healthy worker before the re-attempt.
  recovery.checkpoint_path = ::testing::TempDir() + "/jobrec_jt_step.ckpt";

  rig.router_.InjectFault(rig.w1_addr_, "RunStep", Unavailable("blip"), 1);
  FaultReport report;
  auto r = rig.session_->Run({}, {fetch}, recovery, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 10.0);
  EXPECT_EQ(report.step_attempts, 2);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.workers_evicted, 0)
      << "a live worker must never be evicted for one lost RPC: "
      << report.ToString();
  EXPECT_EQ(rig.monitor_->health(rig.w1_addr_), TaskHealth::kAlive);
}

TEST(JobRecoveryTest, ShrinkTombstonesTheSlotAndAdoptsItsNodes) {
  // No spare this time: the cluster shrinks. Task 1's (independent) nodes
  // are re-placed on task 0, the slot is tombstoned so indices stay stable,
  // and task 1's variable state comes back from the durable checkpoint.
  InProcessRouter router;
  ClusterSpec cluster = WorkerCluster({"sh-w0:1", "sh-w1:1"});
  RetryPolicy send_retry = RetryPolicy::Aggressive(1000);
  ServerDef d0{cluster, "worker", 0, 0};
  ServerDef d1{cluster, "worker", 1, 0};
  d0.send_retry = d1.send_retry = send_retry;
  auto w0 = Server::Create(d0, &router).value();
  auto w1 = Server::Create(d1, &router).value();

  HealthOptions health;
  health.heartbeat_interval_ms = 5;
  health.suspect_after_ms = 40;
  health.dead_after_ms = 120;
  HealthMonitor monitor(&router, health);
  monitor.Watch("sh-w0:1");
  monitor.Watch("sh-w1:1");
  monitor.Start();

  const std::string dir = ::testing::TempDir() + "/jobrec_shrink";
  std::filesystem::remove_all(dir);
  io::CheckpointManager checkpoints(
      io::CheckpointManagerOptions{dir, "job", 3});

  // Disjoint per-task subgraphs (no cross-task edges): shrink re-placement
  // is sound because no shipped node's wiring changes.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Variable(t0, "a", DType::kF64, Shape{});
  auto step0 = ops::AssignAdd(t0, a, ops::Const(t0, Tensor::Scalar(1.0)));
  auto b = ops::Variable(t1, "b", DType::kF64, Shape{});
  auto step1 = ops::AssignAdd(t1, b, ops::Const(t1, Tensor::Scalar(2.0)));

  DeviceName dev;
  dev.job = "worker";
  dev.task = 0;
  auto session = DistributedSession::Create(&router, cluster,
                                            WireProtocol::kRdma,
                                            g.ToGraphDef(), dev)
                     .value();
  ASSERT_TRUE(RemoteTask(&router, "sh-w0:1", WireProtocol::kRdma)
                  .VarAssign("a", Tensor::Scalar(0.0))
                  .ok());
  ASSERT_TRUE(RemoteTask(&router, "sh-w1:1", WireProtocol::kRdma)
                  .VarAssign("b", Tensor::Scalar(5.0))
                  .ok());

  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 3;
  recovery.rpc_retry = RetryPolicy::Aggressive(500);
  recovery.health = &monitor;
  recovery.checkpoints = &checkpoints;
  recovery.checkpoint_every_n_steps = 1;
  recovery.allow_shrink = true;
  recovery.dead_verdict_wait_ms = 5000;

  auto warm = session->Run({}, {step0.name(), step1.name()}, recovery,
                           nullptr);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();  // a=1, b=7
  ASSERT_TRUE(checkpoints.WaitForPending().ok());

  router.Kill("sh-w1:1");
  FaultReport report;
  auto r = session->Run({}, {step0.name(), step1.name()}, recovery, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 2.0);
  EXPECT_DOUBLE_EQ((*r)[1].scalar<double>(), 9.0)
      << "b restored to 7 from the checkpoint, then += 2 on the adopter";

  ASSERT_EQ(report.workers_evicted, 1) << report.ToString();
  EXPECT_TRUE(report.worker_faults[0].shrunk);
  EXPECT_EQ(report.worker_faults[0].successor, "sh-w0:1");
  // Slot 1 is tombstoned, not removed: indices must not shift.
  auto slot1 = session->cluster().TaskAddress("worker", 1);
  ASSERT_TRUE(slot1.ok());
  EXPECT_EQ(*slot1, "sh-w1:1#dead");
  // The adopted state now lives on worker 0.
  RemoteTask adopter(&router, "sh-w0:1", WireProtocol::kRdma);
  EXPECT_DOUBLE_EQ(adopter.VarRead("b")->scalar<double>(), 9.0);

  monitor.Stop();
  // The recovery run's periodic save may still be in flight.
  ASSERT_TRUE(checkpoints.WaitForPending().ok());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(JobRecoveryTest, ShrinkRefusesToRewireAlreadyShippedConsumers) {
  // The unsound shrink: task 1 produces a tensor task 0 consumes. Moving
  // the producer onto its consumer would rewrite the consumer's shipped
  // node (the _Recv edge becomes a direct edge), which graphs being
  // append-only cannot express — recovery must fail with a clear error,
  // not silently diverge.
  InProcessRouter router;
  ClusterSpec cluster = WorkerCluster({"sr-w0:1", "sr-w1:1"});
  ServerDef d0{cluster, "worker", 0, 0};
  ServerDef d1{cluster, "worker", 1, 0};
  auto w0 = Server::Create(d0, &router).value();
  auto w1 = Server::Create(d1, &router).value();

  HealthOptions health;
  health.heartbeat_interval_ms = 5;
  health.suspect_after_ms = 40;
  health.dead_after_ms = 120;
  HealthMonitor monitor(&router, health);
  monitor.Watch("sr-w0:1");
  monitor.Watch("sr-w1:1");
  monitor.Start();

  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto p = ops::Const(t1, Tensor::Scalar(3.0), "p");
  auto y = ops::Mul(t0, p, ops::Const(t0, Tensor::Scalar(2.0)));

  DeviceName dev;
  dev.job = "worker";
  dev.task = 0;
  auto session = DistributedSession::Create(&router, cluster,
                                            WireProtocol::kRdma,
                                            g.ToGraphDef(), dev)
                     .value();
  ASSERT_TRUE(session->Run({}, {y.name()}).ok());

  router.Kill("sr-w1:1");
  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 3;
  recovery.rpc_retry = RetryPolicy::Aggressive(300);
  recovery.health = &monitor;
  recovery.allow_shrink = true;
  recovery.dead_verdict_wait_ms = 5000;
  FaultReport report;
  auto r = session->Run({}, {y.name()}, recovery, &report);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kFailedPrecondition)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("already-shipped"), std::string::npos)
      << r.status().ToString();
  monitor.Stop();
}

TEST(JobRecoveryTest, StepPlanAndHandlesRecompiledAfterSpareAdoption) {
  // Compile-once meets recovery: eviction rebuilds the cluster and re-ships
  // partitions, so every cached step plan (and the worker-side handles it
  // holds) is invalid. The next step must compile a fresh plan and register
  // new steps on the adopted spare — transparently.
  JobRecoveryRig rig("jr");
  const std::string fetch = rig.BuildGraphAndSession();
  const StepRecoveryOptions recovery = rig.Recovery();

  for (int step = 1; step <= 2; ++step) {
    ASSERT_TRUE(rig.session_->Run({}, {fetch}, recovery, nullptr).ok());
  }
  // Steady state: one plan, reused; one registered step per live worker.
  EXPECT_EQ(rig.session_->plans_compiled(), 1);
  EXPECT_EQ(rig.session_->plan_cache_hits(), 1);
  EXPECT_EQ(rig.w0_->steps_registered(), 1);
  EXPECT_EQ(rig.w1_->steps_registered(), 1);
  EXPECT_EQ(rig.spare_->steps_registered(), 0);
  ASSERT_TRUE(rig.checkpoints_->WaitForPending().ok());

  rig.router_.Kill(rig.w1_addr_);
  FaultReport report;
  auto r = rig.session_->Run({}, {fetch}, recovery, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 60.0);
  EXPECT_TRUE(report.recovered);

  // Recovery invalidated the plan cache and the step re-registered on the
  // spare in slot 1 (and on w0, whose old handle pointed at the pre-repin
  // placement).
  EXPECT_GE(rig.session_->plans_compiled(), 2)
      << "re-shipped partitions must invalidate cached step plans";
  EXPECT_GE(rig.spare_->steps_registered(), 1);

  // Subsequent steps reuse the rebuilt plan — compile once, again.
  const int64_t compiled = rig.session_->plans_compiled();
  auto r2 = rig.session_->Run({}, {fetch}, recovery, nullptr);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 100.0);
  EXPECT_EQ(rig.session_->plans_compiled(), compiled);
}

}  // namespace
}  // namespace tfhpc::distrib
