// Serving-layer tests: CancellationToken semantics, cancellation/deadline
// behaviour of every blocking primitive (rendezvous _Recv, queue
// enqueue/dequeue, barrier waits), ServingController admission/fairness/
// shedding, deadline propagation over the wire (client stamp -> server
// refusal -> bounded waits), retry-budget clamping, and thread-safety of
// concurrent Session::Run over one shared cached Executable. The
// concurrency tests here are the TSan regression suite for the serving PR.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "distrib/barrier.h"
#include "distrib/dist_session.h"
#include "distrib/server.h"
#include "graph/ops.h"
#include "runtime/cancellation.h"
#include "runtime/serving.h"
#include "runtime/session.h"

namespace tfhpc::distrib {
namespace {

int64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---- CancellationToken ----------------------------------------------------------

TEST(CancellationTokenTest, FirstCancelWinsAndCallbacksRun) {
  CancellationToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());

  std::atomic<int> fired{0};
  uint64_t id = token.OnCancel([&] { fired.fetch_add(1); });
  (void)id;
  token.Cancel(Cancelled("first"));
  token.Cancel(Unavailable("second"));  // loses: first status sticks
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), Code::kCancelled);
  EXPECT_NE(token.Check().message().find("first"), std::string::npos);

  // Registering on an already-cancelled token runs the callback inline.
  std::atomic<int> late{0};
  token.OnCancel([&] { late.fetch_add(1); });
  EXPECT_EQ(late.load(), 1);
}

TEST(CancellationTokenTest, DeadlineExpiryNeedsNoCancelCall) {
  auto token = CancellationToken::WithTimeout(30);
  EXPECT_TRUE(token->has_deadline());
  EXPECT_TRUE(token->Check().ok());
  EXPECT_GT(token->remaining_ms(), 0);
  EXPECT_GT(token->deadline_ns(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(token->Check().code(), Code::kDeadlineExceeded);
  EXPECT_LE(token->remaining_ms(), 0);
}

TEST(CancellationTokenTest, TightenOnlyMovesDeadlineEarlier) {
  auto token = CancellationToken::WithTimeout(10000);
  const auto tight =
      CancellationToken::Clock::now() + std::chrono::milliseconds(50);
  token->TightenDeadline(tight);
  EXPECT_LE(token->remaining_ms(), 50);
  // Attempting to loosen is a no-op.
  token->TightenDeadline(CancellationToken::Clock::now() +
                         std::chrono::seconds(60));
  EXPECT_LE(token->remaining_ms(), 50);
}

// ---- rendezvous under cancellation ----------------------------------------------

TEST(ServingCancelTest, CancelUnblocksRecvWaiter) {
  Rendezvous rv;
  CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel(Cancelled("client went away"));
  });
  const auto start = std::chrono::steady_clock::now();
  auto r = rv.Recv("never_sent", &token);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kCancelled);
  EXPECT_LT(ElapsedMs(start), 5000);
  // The rendezvous itself is NOT poisoned: other steps keep working.
  ASSERT_TRUE(rv.Send("k", Tensor::Scalar(1.0)).ok());
  EXPECT_TRUE(rv.Recv("k").ok());
}

TEST(ServingCancelTest, DeadlineUnblocksRecvWaiterWithoutCancel) {
  Rendezvous rv;
  auto token = CancellationToken::WithTimeout(50);
  const auto start = std::chrono::steady_clock::now();
  auto r = rv.Recv("never_sent", token.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded);
  EXPECT_GE(ElapsedMs(start), 40);
  EXPECT_LT(ElapsedMs(start), 5000);
}

// ---- queues under cancellation --------------------------------------------------

TEST(ServingCancelTest, CancelUnblocksDequeueButQueueStaysOpen) {
  FIFOQueue q("q");
  CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel(Cancelled("step aborted"));
  });
  auto r = q.Dequeue(&token);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kCancelled);
  // Unlike Close, cancellation only fails the *waiter*: the queue remains
  // usable for other tenants.
  ASSERT_TRUE(q.Enqueue(Tensor::Scalar(2.0)).ok());
  EXPECT_DOUBLE_EQ(q.Dequeue()->scalar<double>(), 2.0);
}

TEST(ServingCancelTest, DeadlineUnblocksFullQueueEnqueue) {
  FIFOQueue q("q", /*capacity=*/1);
  ASSERT_TRUE(q.Enqueue(Tensor::Scalar(1.0)).ok());  // now full
  auto token = CancellationToken::WithTimeout(50);
  auto st = q.Enqueue(Tensor::Scalar(2.0), token.get());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kDeadlineExceeded);
  // The parked element was not half-applied.
  EXPECT_DOUBLE_EQ(q.Dequeue()->scalar<double>(), 1.0);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ServingCancelTest, CancelAllQueueWaitersWakesEveryWaiterOnce) {
  ResourceMgr rm;
  ASSERT_TRUE(rm.LookupOrCreateQueue("a", 0).ok());
  ASSERT_TRUE(rm.LookupOrCreateQueue("b", 0).ok());
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  std::vector<Status> results(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      FIFOQueue* q = rm.LookupOrCreateQueue(i % 2 ? "a" : "b", 0).value();
      results[i] = q->Dequeue().status();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rm.CancelAllQueueWaiters(Cancelled("step aborted"));
  for (auto& t : waiters) t.join();
  for (const Status& st : results) {
    EXPECT_EQ(st.code(), Code::kCancelled) << st.ToString();
  }
  // Epoch cancellation, not close: both queues still accept traffic.
  FIFOQueue* a = rm.LookupOrCreateQueue("a", 0).value();
  ASSERT_TRUE(a->Enqueue(Tensor::Scalar(7.0)).ok());
  EXPECT_DOUBLE_EQ(a->Dequeue()->scalar<double>(), 7.0);
}

// ---- executor: step deadline / cancellation -------------------------------------

TEST(ServingExecutorTest, RunTimeoutFailsBlockedStepNotHangs) {
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto out = ops::QueueDequeue(s, "fed_externally");
  auto sess = rt.NewSession();
  RunOptions options;
  options.timeout_ms = 80;
  const auto start = std::chrono::steady_clock::now();
  auto r = sess->Run({}, {out.name()}, {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded) << r.status().ToString();
  EXPECT_LT(ElapsedMs(start), 10000);
  // The session survives: feed the queue, re-run the same signature.
  FIFOQueue* q = rt.resources().LookupOrCreateQueue("fed_externally", 0).value();
  ASSERT_TRUE(q->Enqueue(Tensor::Scalar(4.0)).ok());
  auto r2 = sess->Run({}, {out.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 4.0);
}

TEST(ServingExecutorTest, CallerTokenCancelsBlockedStep) {
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto out = ops::QueueDequeue(s, "never_fed");
  auto sess = rt.NewSession();
  CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel(Cancelled("caller gave up"));
  });
  RunOptions options;
  options.cancellation = &token;
  auto r = sess->Run({}, {out.name()}, {}, options);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kCancelled) << r.status().ToString();
}

TEST(ServingExecutorTest, ExpiredTokenRefusedBeforeDispatch) {
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto c = ops::Const(s, Tensor::Scalar(1.0));
  auto sess = rt.NewSession();
  auto token = CancellationToken::WithTimeout(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  RunOptions options;
  options.cancellation = token.get();
  auto r = sess->Run({}, {c.name()}, {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded);
}

// ---- concurrent Session::Run over a shared cached Executable --------------------
// TSan regression for the executable-cache races: the LRU bump under
// cache_mu_, the atomic Graph::version() stale check, and trace-mode's
// precomputed input names.

TEST(ServingConcurrencyTest, ConcurrentRunsShareOneCachedExecutable) {
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{4}, "x");
  auto y = ops::Mul(s, x, ops::Const(s, Tensor::Scalar(3.0)));
  for (int i = 0; i < 4; ++i) y = ops::Add(s, y, y);
  auto sess = rt.NewSession();

  constexpr int kThreads = 8;
  constexpr int kStepsPerThread = 50;
  const Tensor feed = Tensor::FromVector(std::vector<double>{1, 2, 3, 4});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kStepsPerThread; ++i) {
        auto r = sess->Run({{"x", feed}}, {y.name()});
        if (!r.ok() || (*r)[0].data<double>()[0] != 48.0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // One compile, everyone else hit the shared cache entry.
  EXPECT_EQ(sess->executable_cache_misses(), 1);
  EXPECT_EQ(sess->executable_cache_hits(),
            kThreads * kStepsPerThread - 1);
}

TEST(ServingConcurrencyTest, ConcurrentTracedRunsDoNotRaceTheGraph) {
  // Trace mode reads per-node input names while recording; with concurrent
  // steps those reads must not touch mutable graph state (they come from
  // the compiled plan's precomputed names).
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto a = ops::Const(s, Tensor::Scalar(2.0));
  auto b = ops::Add(s, a, a);
  auto sess = rt.NewSession();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        RunOptions options;
        options.trace = true;
        RunMetadata meta;
        auto r = sess->Run({}, {b.name()}, {}, options, &meta);
        if (!r.ok() || meta.nodes.empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- ServingController ----------------------------------------------------------

TEST(ServingControllerTest, AdmitsUpToMaxInflightThenQueues) {
  ServingOptions opts;
  opts.max_inflight = 2;
  opts.max_queued = 8;
  ServingController ctl(opts);
  ASSERT_TRUE(ctl.Admit("a", nullptr).ok());
  ASSERT_TRUE(ctl.Admit("a", nullptr).ok());
  EXPECT_EQ(ctl.stats().inflight, 2);

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(ctl.Admit("b", nullptr).ok());
    granted.store(true);
    ctl.Release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load());  // still at capacity
  EXPECT_EQ(ctl.stats().queued, 1);
  ctl.Release();  // frees a slot -> the queued ticket is granted
  waiter.join();
  EXPECT_TRUE(granted.load());
  ctl.Release();
  EXPECT_EQ(ctl.stats().inflight, 0);
  EXPECT_EQ(ctl.stats().admitted, 3);
  EXPECT_EQ(ctl.stats().completed, 3);
}

TEST(ServingControllerTest, ShedsWithRetryAfterWhenQueueFull) {
  ServingOptions opts;
  opts.max_inflight = 1;
  opts.max_queued = 1;
  opts.retry_after_ms = 17;
  ServingController ctl(opts);
  ASSERT_TRUE(ctl.Admit("a", nullptr).ok());  // occupies the slot

  std::thread queued([&] {
    // Fills the one queue spot, waits until the slot frees below.
    ASSERT_TRUE(ctl.Admit("b", nullptr).ok());
    ctl.Release();
  });
  while (ctl.stats().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  Status st = ctl.Admit("c", nullptr);  // queue full -> shed immediately
  EXPECT_EQ(st.code(), Code::kUnavailable);
  EXPECT_NE(st.message().find("retry_after_ms=17"), std::string::npos)
      << st.ToString();
  EXPECT_LT(ElapsedMs(start), 1000) << "shedding must be immediate";
  EXPECT_EQ(ctl.stats().shed, 1);
  ctl.Release();
  queued.join();
}

TEST(ServingControllerTest, FairRoundRobinAcrossClients) {
  // Client A queues two tickets before client B queues one; the grant order
  // must round-robin A, B, A — B's single step is not starved behind A's
  // backlog.
  ServingOptions opts;
  opts.max_inflight = 1;
  opts.max_queued = 8;
  ServingController ctl(opts);
  ASSERT_TRUE(ctl.Admit("z_warm", nullptr).ok());  // hold the only slot

  std::mutex order_mu;
  std::vector<std::string> order;
  std::vector<std::thread> waiters;
  auto spawn = [&](const std::string& client) {
    waiters.emplace_back([&, client] {
      ASSERT_TRUE(ctl.Admit(client, nullptr).ok());
      {
        std::lock_guard<std::mutex> lk(order_mu);
        order.push_back(client);
      }
      ctl.Release();
    });
    // Serialize queue arrival so per-client FIFO order is deterministic.
    const int target = static_cast<int>(waiters.size());
    while (ctl.stats().queued < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  spawn("a");
  spawn("a");
  spawn("b");
  ctl.Release();  // free the slot; grants chain a -> b -> a
  for (auto& t : waiters) t.join();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "a");
  EXPECT_EQ(ctl.stats().inflight, 0);
}

TEST(ServingControllerTest, QueuedTicketHonorsDeadlineAndCancel) {
  ServingOptions opts;
  opts.max_inflight = 1;
  opts.max_queued = 8;
  ServingController ctl(opts);
  ASSERT_TRUE(ctl.Admit("holder", nullptr).ok());

  // Deadline while queued -> kDeadlineExceeded, ticket evaporates.
  auto deadline_token = CancellationToken::WithTimeout(40);
  const auto start = std::chrono::steady_clock::now();
  Status st = ctl.Admit("impatient", deadline_token.get());
  EXPECT_EQ(st.code(), Code::kDeadlineExceeded) << st.ToString();
  EXPECT_LT(ElapsedMs(start), 5000);
  EXPECT_EQ(ctl.stats().queued, 0);
  EXPECT_EQ(ctl.stats().expired_in_queue, 1);

  // Cancel while queued -> the token's status, ticket evaporates.
  CancellationToken cancel_token;
  std::thread canceller([&] {
    while (ctl.stats().queued < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cancel_token.Cancel(Cancelled("tenant disconnected"));
  });
  Status st2 = ctl.Admit("leaver", &cancel_token);
  canceller.join();
  EXPECT_EQ(st2.code(), Code::kCancelled) << st2.ToString();
  EXPECT_EQ(ctl.stats().expired_in_queue, 2);

  // Dead on arrival -> refused without touching the queue.
  Status st3 = ctl.Admit("doa", &cancel_token);
  EXPECT_EQ(st3.code(), Code::kCancelled);
  ctl.Release();
  EXPECT_EQ(ctl.stats().inflight, 0);
}

// ---- retry budget clamping (deadline propagation into retries) ------------------

TEST(ServingRetryTest, ClampToRemainingContract) {
  RetryPolicy unbounded;  // deadline_ms = 0: NO deadline
  EXPECT_EQ(ClampToRemaining(unbounded, 100).deadline_ms, 100);

  RetryPolicy tight = RetryPolicy::Aggressive(/*deadline_ms=*/50);
  EXPECT_EQ(ClampToRemaining(tight, 100).deadline_ms, 50);   // policy wins
  EXPECT_EQ(ClampToRemaining(tight, 20).deadline_ms, 20);    // remaining wins

  // An already-expired budget clamps to 1ms — the attempt still runs once
  // and fails fast, preserving "never a hang" without a special case.
  EXPECT_EQ(ClampToRemaining(tight, 0).deadline_ms, 1);
  EXPECT_EQ(ClampToRemaining(tight, -5).deadline_ms, 1);
}

// ---- wire-level deadline propagation --------------------------------------------

class ServingServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wire::ClusterDef def;
    wire::JobDef worker;
    worker.name = "worker";
    worker.task_addrs = {"sv-w0:1", "sv-w1:1"};
    def.jobs = {worker};
    spec_ = std::make_unique<ClusterSpec>(ClusterSpec::Create(def).value());
    ServerDef w0{*spec_, "worker", 0, 0};
    ServerDef w1{*spec_, "worker", 1, 0};
    w0_ = Server::Create(w0, &router_).value();
    w1_ = Server::Create(w1, &router_).value();
  }

  InProcessRouter router_;
  std::unique_ptr<ClusterSpec> spec_;
  std::unique_ptr<Server> w0_, w1_;
};

TEST_F(ServingServerTest, ServerRefusesAlreadyExpiredRequests) {
  // Bypass the client-side refusal by crafting the envelope directly: a
  // request whose absolute deadline already passed must be refused before
  // dispatch with kDeadlineExceeded.
  wire::RpcEnvelope req;
  req.method = "Ping";
  req.payload = wire::PayloadRef("hello");
  req.deadline_ns = 1;  // epoch start: expired for any live clock
  auto r = router_.Call("sv-w0:1", WireProtocol::kRdma, req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<Code>(r->status_code), Code::kDeadlineExceeded)
      << r->status_msg;
  EXPECT_EQ(w0_->expired_rejects(), 1);
}

TEST_F(ServingServerTest, ClientRefusesExpiredTokenWithoutAnRpc) {
  RemoteTask w0(&router_, "sv-w0:1", WireProtocol::kRdma);
  auto token = CancellationToken::WithTimeout(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const int64_t calls_before = router_.stats(WireProtocol::kRdma).calls.load();
  // Any handle will do: the client refuses before any RPC.
  auto r = w0.RunRegisteredStep(/*handle=*/1, {}, false, token.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded);
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).calls.load(), calls_before);
}

TEST_F(ServingServerTest, DeadlineBoundsServerSideRecvWait) {
  // A step that blocks in _Recv (nobody sends) must fail with
  // kDeadlineExceeded within the propagated deadline — and the worker must
  // remain fully serviceable afterwards.
  Graph g;
  Scope s(&g);
  auto got = ops::Recv(s, "never_sent_key");
  auto ok = ops::Const(s, Tensor::Scalar(5.0), "ok_const");
  RemoteTask w0(&router_, "sv-w0:1", WireProtocol::kRdma);
  ASSERT_TRUE(w0.ExtendGraph(g.ToGraphDef()).ok());
  auto got_step = w0.RegisterStep({}, {got.name()});
  auto ok_step = w0.RegisterStep({}, {ok.name()});
  ASSERT_TRUE(got_step.ok()) << got_step.status().ToString();
  ASSERT_TRUE(ok_step.ok()) << ok_step.status().ToString();

  auto token = CancellationToken::WithTimeout(150);
  const auto start = std::chrono::steady_clock::now();
  auto r = w0.RunRegisteredStep(*got_step, {}, false, token.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded) << r.status().ToString();
  EXPECT_GE(ElapsedMs(start), 100);
  EXPECT_LT(ElapsedMs(start), 10000) << "deadline must bound the step";
  auto r2 = w0.RunRegisteredStep(*ok_step, {});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 5.0);
}

TEST_F(ServingServerTest, AbortStepCancelsRecvWaiterInRunningStep) {
  Graph g;
  Scope s(&g);
  auto got = ops::Recv(s, "abort_me");
  RemoteTask w0(&router_, "sv-w0:1", WireProtocol::kRdma);
  ASSERT_TRUE(w0.ExtendGraph(g.ToGraphDef()).ok());
  auto handle = w0.RegisterStep({}, {got.name()});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RemoteTask(&router_, "sv-w0:1", WireProtocol::kRdma).AbortStep("test");
  });
  auto r = w0.RunRegisteredStep(*handle, {});
  aborter.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kCancelled) << r.status().ToString();
  ASSERT_TRUE(RemoteTask(&router_, "sv-w0:1", WireProtocol::kRdma)
                  .ResetStep()
                  .ok());
}

TEST_F(ServingServerTest, DeadlineBoundsRemoteQueueWaits) {
  RemoteTask w0(&router_, "sv-w0:1", WireProtocol::kRdma);
  auto token = CancellationToken::WithTimeout(120);
  const auto start = std::chrono::steady_clock::now();
  auto r = w0.Dequeue("empty_remote_q", 0, token.get());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded) << r.status().ToString();
  EXPECT_LT(ElapsedMs(start), 10000);
  // The queue is intact for the next tenant.
  ASSERT_TRUE(w0.Enqueue("empty_remote_q", Tensor::Scalar(3.0)).ok());
  EXPECT_DOUBLE_EQ(w0.Dequeue("empty_remote_q")->scalar<double>(), 3.0);
}

TEST_F(ServingServerTest, AbortStepCancelsBarrierWaitAndBarrierRecovers) {
  // One of two participants arrives and parks in the barrier's release-queue
  // dequeue (inside a remote Dequeue handler). AbortStep on the coordinator
  // must fail the parked wait with kCancelled — not leave it hanging. After
  // ResetStep the same barrier completes normally with both workers.
  QueueBarrier barrier(&router_, "sv-w0:1", WireProtocol::kRdma, "bar", 2);
  Status lone;
  std::thread lone_worker([&] { lone = barrier.Arrive(0).status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(
      RemoteTask(&router_, "sv-w0:1", WireProtocol::kRdma).AbortStep("").ok());
  lone_worker.join();
  EXPECT_EQ(lone.code(), Code::kCancelled) << lone.ToString();
  ASSERT_TRUE(
      RemoteTask(&router_, "sv-w0:1", WireProtocol::kRdma).ResetStep().ok());

  // Drain the aborted round's stray token so round 0 starts clean.
  (void)RemoteTask(&router_, "sv-w0:1", WireProtocol::kRdma)
      .Dequeue("bar/in", 0,
               CancellationToken::WithTimeout(200).get());

  std::thread coordinator([&] {
    EXPECT_TRUE(QueueBarrier::RunCoordinator(&router_, "sv-w0:1",
                                             WireProtocol::kRdma, "bar", 2, 1)
                    .ok());
  });
  std::thread w0_arrive([&] { EXPECT_TRUE(barrier.Arrive(0).ok()); });
  std::thread w1_arrive([&] { EXPECT_TRUE(barrier.Arrive(1).ok()); });
  coordinator.join();
  w0_arrive.join();
  w1_arrive.join();
}

TEST_F(ServingServerTest, AdmissionControlShedsExcessRunSteps) {
  // A dedicated server with one execution slot and a tiny queue: concurrent
  // steps beyond slot+queue are shed with kUnavailable, and every accepted
  // step completes. The steps block briefly in _Recv so they overlap.
  wire::ClusterDef def;
  wire::JobDef worker;
  worker.name = "worker";
  worker.task_addrs = {"sv-adm:1"};
  def.jobs = {worker};
  auto spec = ClusterSpec::Create(def).value();
  ServerDef sdef{spec, "worker", 0, 0};
  sdef.max_inflight_steps = 1;
  sdef.serving.max_queued = 2;
  auto server = Server::Create(sdef, &router_).value();

  Graph g;
  Scope s(&g);
  auto got = ops::Recv(s, "adm_gate");
  RemoteTask setup(&router_, "sv-adm:1", WireProtocol::kRdma);
  ASSERT_TRUE(setup.ExtendGraph(g.ToGraphDef()).ok());
  auto handle = setup.RegisterStep({}, {got.name()});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<Status> results(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      RemoteTask c(&router_, "sv-adm:1", WireProtocol::kRdma);
      auto token = CancellationToken::WithTimeout(3000);
      results[i] =
          c.RunRegisteredStep(*handle, {}, false, token.get()).status();
    });
  }
  // Let the herd arrive, then feed the gate enough tensors for everyone the
  // controller admitted (slot + queue = 3).
  while (server->serving_stats().shed < kClients - 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(setup.RendezvousSend("adm_gate", Tensor::Scalar(1.0)).ok());
  }
  for (auto& t : clients) t.join();

  int ok = 0, shed = 0, other = 0;
  for (const Status& st : results) {
    if (st.ok()) {
      ++ok;
    } else if (st.code() == Code::kUnavailable) {
      EXPECT_NE(st.message().find("retry_after_ms"), std::string::npos);
      ++shed;
    } else {
      ++other;
      ADD_FAILURE() << "unexpected: " << st.ToString();
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(shed, kClients - 3);
  EXPECT_EQ(other, 0);
  const ServingStats stats = server->serving_stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed, kClients - 3);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.queued, 0);
  server->Shutdown();
}

// ---- distributed step deadline under faults -------------------------------------

class ServingDistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wire::ClusterDef def;
    wire::JobDef workers;
    workers.name = "worker";
    workers.task_addrs = {"sd-w0:1", "sd-w1:1"};
    def.jobs = {workers};
    spec_ = std::make_unique<ClusterSpec>(ClusterSpec::Create(def).value());
    RetryPolicy send_retry = RetryPolicy::Aggressive(5000);
    ServerDef w0{*spec_, "worker", 0, 0};
    ServerDef w1{*spec_, "worker", 1, 0};
    w0.send_retry = w1.send_retry = send_retry;
    w0_ = Server::Create(w0, &router_).value();
    w1_ = Server::Create(w1, &router_).value();
  }

  DeviceName WorkerDev() {
    DeviceName d;
    d.job = "worker";
    d.task = 0;
    return d;
  }

  InProcessRouter router_;
  std::unique_ptr<ClusterSpec> spec_;
  std::unique_ptr<Server> w0_, w1_;
};

TEST_F(ServingDistTest, StepTimeoutBoundsPartitionedTwoWorkerStepUnderChaos) {
  // Cross-task step (w0 produces, w1 consumes) with w0 killed and chaos
  // faults on the surviving links. The client's retry policy alone would
  // burn 60s per RPC; the step deadline clamps every attempt to the
  // remaining budget, so the whole fault-tolerant Run — two attempts plus
  // cleanup — completes in bounded time with a deadline/unavailable error,
  // never a hang. Reviving w0 makes the same step succeed.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(5.0), "a");
  auto y = ops::Mul(t1, a, ops::Const(t1, Tensor::Scalar(2.0)));

  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  router_.Kill("sd-w0:1");
  ChaosConfig chaos;
  chaos.seed = 77;
  chaos.drop_request_rate = 0.05;
  chaos.drop_response_rate = 0.05;
  chaos.duplicate_rate = 0.05;
  router_.EnableChaos(chaos);

  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 2;
  recovery.rpc_retry = RetryPolicy::Aggressive(/*deadline_ms=*/60000);
  recovery.step_timeout_ms = 400;
  FaultReport report;
  const auto start = std::chrono::steady_clock::now();
  auto r = (*session)->Run({}, {y.name()}, recovery, &report);
  const int64_t elapsed = ElapsedMs(start);
  ASSERT_FALSE(r.ok());
  const Code code = r.status().code();
  EXPECT_TRUE(code == Code::kDeadlineExceeded || code == Code::kUnavailable ||
              code == Code::kCancelled)
      << r.status().ToString();
  EXPECT_EQ(report.step_attempts, 2);
  // Two 400ms-bounded attempts + abort/reset cleanup: far below the 60s the
  // unclamped retry policy would have allowed even one RPC to burn.
  EXPECT_LT(elapsed, 30000) << report.ToString();

  router_.DisableChaos();
  router_.Revive("sd-w0:1");
  auto r2 = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 10.0);
}

TEST_F(ServingDistTest, PeerFailureCancelsSurvivingPartitionMidStep) {
  // w1's share of the step blocks in _Recv for w0's tensor; w0 is killed
  // mid-step, so its RunStep fails fast while w1's would park forever. The
  // session must cancel w1 (token + AbortStep) and return the root cause in
  // bounded time.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(3.0), "a");
  auto y = ops::Mul(t1, a, ops::Const(t1, Tensor::Scalar(4.0)));

  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Warm one clean step so both partitions' handles are registered.
  auto warm = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  router_.Kill("sd-w0:1");
  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 1;
  recovery.step_timeout_ms = 10000;  // generous: peer-cancel must beat it
  const auto start = std::chrono::steady_clock::now();
  auto r = (*session)->Run({}, {y.name()}, recovery, nullptr);
  const int64_t elapsed = ElapsedMs(start);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kUnavailable) << r.status().ToString();
  EXPECT_LT(elapsed, 8000) << "surviving partition was not cancelled";

  router_.Revive("sd-w0:1");
  auto r2 = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 12.0);
}

}  // namespace
}  // namespace tfhpc::distrib
