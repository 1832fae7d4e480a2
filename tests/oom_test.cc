// Memory-pressure robustness tests: MemoryLimiter budgets, the seeded
// AllocFaultInjector schedules, trim-and-retry recovery in the fallible
// allocation path, executor unwind on mid-step OOM (queues/sessions stay
// usable), serving byte-budget admission, the transient-vs-permanent
// kResourceExhausted taxonomy (including its trip across the RPC wire), and
// distributed step retry after a transient OOM. The concurrency suite
// (OomBufferPool*) doubles as the TSan regression tests for the allocator
// fault-injection PR.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/buffer.h"
#include "core/status.h"
#include "core/tensor.h"
#include "distrib/client.h"
#include "distrib/dist_session.h"
#include "distrib/retry.h"
#include "distrib/server.h"
#include "graph/ops.h"
#include "runtime/serving.h"
#include "runtime/session.h"
#include "wire/messages.h"

namespace tfhpc {
namespace {

using distrib::ClusterSpec;
using distrib::DistributedSession;
using distrib::FaultReport;
using distrib::InProcessRouter;
using distrib::IsRetryable;
using distrib::IsRetryableCode;
using distrib::RemoteTask;
using distrib::RetryPolicy;
using distrib::Server;
using distrib::ServerDef;
using distrib::StepRecoveryOptions;
using distrib::WireProtocol;

// Restores process-global allocator state no matter how a test exits: the
// injector is disarmed, the process budget lifted, and the pool's idle
// cache dropped so the next test starts from a clean footprint.
struct GlobalAllocatorGuard {
  GlobalAllocatorGuard() { Reset(); }
  ~GlobalAllocatorGuard() { Reset(); }
  static void Reset() {
    AllocFaultInjector::Global().Disarm();
    MemoryLimiter::Process().set_limit(0);
    BufferPool::Global().Trim();
  }
};

// ---- MemoryLimiter ----------------------------------------------------------

TEST(OomLimiterTest, ReserveReleasePeakAndFailedAccounting) {
  MemoryLimiter lim(100, "test");
  EXPECT_EQ(lim.limit(), 100);
  ASSERT_TRUE(lim.Reserve(60).ok());
  ASSERT_TRUE(lim.Reserve(40).ok());
  EXPECT_EQ(lim.used(), 100);
  EXPECT_EQ(lim.peak(), 100);

  Status st = lim.Reserve(1);  // breach: nothing reserved
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_NE(st.message().find("test budget exhausted"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(lim.used(), 100);
  EXPECT_EQ(lim.failed(), 1);

  lim.Release(100);
  EXPECT_EQ(lim.used(), 0);
  EXPECT_EQ(lim.peak(), 100);  // high-water survives release
  lim.ResetPeak();
  EXPECT_EQ(lim.peak(), 0);
}

TEST(OomLimiterTest, UnlimitedStillAccounts) {
  MemoryLimiter lim;  // limit 0 = unlimited
  ASSERT_TRUE(lim.Reserve(1 << 30).ok());
  EXPECT_EQ(lim.used(), 1 << 30);
  EXPECT_EQ(lim.failed(), 0);
  lim.Release(1 << 30);
  EXPECT_EQ(lim.used(), 0);
}

// ---- AllocFaultInjector schedules ------------------------------------------

TEST(OomInjectorTest, EveryNthFailsExactlyTheNthEligible) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.every_nth = 3;
  AllocFaultInjector::Global().Install(spec);
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) {
    pattern.push_back(AllocFaultInjector::Global().ShouldFail(128));
  }
  const std::vector<bool> want = {false, false, true, false, false,
                                  true,  false, false, true};
  EXPECT_EQ(pattern, want);
  EXPECT_EQ(AllocFaultInjector::Global().considered(), 9);
  EXPECT_EQ(AllocFaultInjector::Global().injected(), 3);
}

TEST(OomInjectorTest, AfterBytesFailsOnceCumulativeBytesExceedThreshold) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.after_bytes = 100;
  AllocFaultInjector::Global().Install(spec);
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(64));   // 64 <= 100
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(64));    // 128 > 100
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(8));     // stays over
}

TEST(OomInjectorTest, ProbabilityScheduleIsDeterministicBySeed) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.probability = 0.3;
  spec.seed = 42;
  auto run = [&spec] {
    AllocFaultInjector::Global().Install(spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(AllocFaultInjector::Global().ShouldFail(256));
    }
    return pattern;
  };
  const std::vector<bool> a = run();
  const std::vector<bool> b = run();
  EXPECT_EQ(a, b) << "same seed must give the same schedule";
  const int64_t hits = AllocFaultInjector::Global().injected();
  EXPECT_GT(hits, 200 * 0.3 / 3) << "p=0.3 over 200 draws";
  EXPECT_LT(hits, 200 * 0.3 * 3);

  spec.seed = 43;
  AllocFaultInjector::Global().Install(spec);
  std::vector<bool> c;
  for (int i = 0; i < 200; ++i) {
    c.push_back(AllocFaultInjector::Global().ShouldFail(256));
  }
  EXPECT_NE(a, c) << "different seed must give a different schedule";
}

TEST(OomInjectorTest, SizeClassFilterAndMaxFailures) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.every_nth = 1;       // every eligible allocation fails...
  spec.min_bytes = 1 << 20;  // ...but only megabyte-class ones are eligible
  spec.max_failures = 2;
  AllocFaultInjector::Global().Install(spec);
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(64));
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(4096));
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(1 << 20));
  EXPECT_TRUE(AllocFaultInjector::Global().ShouldFail(2 << 20));
  // The budget of injected failures is spent: big allocations pass again.
  EXPECT_FALSE(AllocFaultInjector::Global().ShouldFail(1 << 20));
  EXPECT_EQ(AllocFaultInjector::Global().injected(), 2);
}

// ---- fallible allocation: trim-and-retry, taxonomy, accounting --------------

TEST(OomAllocTest, InjectedFailureIsTransientAndCountsOnStats) {
  GlobalAllocatorGuard guard;
  AllocatorStats stats;
  AllocFaultSpec spec;
  spec.every_nth = 1;  // both attempts of the trim-retry loop fail
  AllocFaultInjector::Global().Install(spec);
  auto r = Buffer::TryAllocate(1024, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted);
  EXPECT_TRUE(IsTransientResourceExhausted(r.status())) << r.status().ToString();
  EXPECT_EQ(stats.failed(), 1);
  EXPECT_EQ(stats.live_bytes(), 0);
  // The trim-retry loop consulted the injector once per attempt.
  EXPECT_EQ(AllocFaultInjector::Global().injected(), 2);

  AllocFaultInjector::Global().Disarm();
  auto ok = Buffer::TryAllocate(1024, &stats);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(stats.live_bytes(), 1024);
}

TEST(OomAllocTest, SingleInjectedFaultRecoversViaRetryAttempt) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.every_nth = 1;
  spec.max_failures = 1;  // only the first attempt fails
  AllocFaultInjector::Global().Install(spec);
  auto r = Buffer::TryAllocate(1024);
  ASSERT_TRUE(r.ok()) << r.status().ToString()
                      << " (trim-retry must absorb a single fault)";
}

TEST(OomAllocTest, TrimRetryRecoversBudgetFromIdlePoolBytes) {
  GlobalAllocatorGuard guard;
  constexpr int64_t kMb = 1 << 20;
  const int64_t base = MemoryLimiter::Process().used();
  // Park 1 MB in the pool's free list: released buffers stay charged.
  { auto r = Buffer::TryAllocate(kMb); ASSERT_TRUE(r.ok()); }
  EXPECT_EQ(MemoryLimiter::Process().used(), base + kMb);
  EXPECT_GE(BufferPool::Global().cached_bytes(), static_cast<size_t>(kMb));
  // Budget admits 2 MB total — but only after the idle 1 MB is trimmed.
  MemoryLimiter::Process().set_limit(base + 2 * kMb);
  auto r = Buffer::TryAllocate(2 * kMb);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(MemoryLimiter::Process().used(), base + 2 * kMb);
}

TEST(OomAllocTest, ProcessBudgetBreachIsTransientAndFullyReleased) {
  GlobalAllocatorGuard guard;
  const int64_t base = MemoryLimiter::Process().used();
  MemoryLimiter::Process().set_limit(base + 1024);
  auto r = Buffer::TryAllocate(1 << 20);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTransientResourceExhausted(r.status())) << r.status().ToString();
  EXPECT_EQ(MemoryLimiter::Process().used(), base) << "failed reserve leaked";
}

TEST(OomAllocTest, StepBudgetBreachIsPermanentAndReleasedOnBufferDeath) {
  GlobalAllocatorGuard guard;
  auto step = std::make_shared<MemoryLimiter>(4096, "step memory");
  {
    auto ok = Buffer::TryAllocate(1024, nullptr, ZeroInit::kYes, step);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(step->used(), 1024);
    auto breach = Buffer::TryAllocate(4096, nullptr, ZeroInit::kYes, step);
    ASSERT_FALSE(breach.ok());
    EXPECT_EQ(breach.status().code(), Code::kResourceExhausted);
    EXPECT_FALSE(IsTransientResourceExhausted(breach.status()))
        << "a step outgrowing its own budget must be permanent: "
        << breach.status().ToString();
    EXPECT_EQ(step->used(), 1024) << "failed reserve leaked";
    EXPECT_EQ(step->failed(), 1);
  }
  EXPECT_EQ(step->used(), 0) << "buffer death must return the reservation";
  EXPECT_EQ(step->peak(), 1024);
}

TEST(OomAllocTest, CloneChargesTheSameAllocatorStats) {
  GlobalAllocatorGuard guard;
  AllocatorStats stats;
  auto t = Tensor::TryCreate(DType::kF64, Shape{256}, &stats);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(stats.live_bytes(), 2048);
  Tensor clone = t->Clone();
  EXPECT_EQ(stats.live_bytes(), 4096)
      << "deep copies must be visible to the same device accounting";
  clone = Tensor();
  EXPECT_EQ(stats.live_bytes(), 2048);
}

// ---- concurrent pool traffic under injected faults (TSan suite) -------------

TEST(OomBufferPoolConcurrencyTest, AcquireReleaseTrimUnderInjectedFailures) {
  GlobalAllocatorGuard guard;
  AllocFaultSpec spec;
  spec.probability = 0.2;
  spec.seed = 7;
  AllocFaultInjector::Global().Install(spec);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  AllocatorStats stats;
  std::atomic<int> failures{0}, successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t size = 64u << ((t + i) % 8);  // mixed size classes
        auto r = Buffer::TryAllocate(size, &stats, ZeroInit::kNo);
        if (r.ok()) {
          successes.fetch_add(1);
        } else {
          // Every failure must be the clean transient kind.
          if (!IsTransientResourceExhausted(r.status())) std::abort();
          failures.fetch_add(1);
        }
        if (i % 64 == 0) BufferPool::Global().Trim();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(successes.load() + failures.load(), kThreads * kIters);
  EXPECT_GT(successes.load(), 0);
  EXPECT_GT(failures.load(), 0) << "p=0.2 over 1600 draws must inject";
  EXPECT_EQ(stats.live_bytes(), 0) << "all buffers died; accounting must zero";
  EXPECT_EQ(stats.failed(), failures.load());

  AllocFaultInjector::Global().Disarm();
  BufferPool::Global().Trim();
}

TEST(OomBufferPoolConcurrencyTest, ConcurrentStepsUnderOneProcessBudget) {
  GlobalAllocatorGuard guard;
  const int64_t base = MemoryLimiter::Process().used();
  MemoryLimiter::Process().set_limit(base + (1 << 20));  // tight shared budget
  std::atomic<int> oom{0}, ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        auto r = Buffer::TryAllocate(128 << 10, nullptr, ZeroInit::kNo);
        if (r.ok()) {
          ok.fetch_add(1);
        } else {
          if (!IsTransientResourceExhausted(r.status())) std::abort();
          oom.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(ok.load(), 0);
  MemoryLimiter::Process().set_limit(0);
  BufferPool::Global().Trim();
  EXPECT_EQ(MemoryLimiter::Process().used(), base)
      << "budget must return to baseline once buffers die and the pool trims";
}

// ---- executor unwind: OOM fails the step, not the process -------------------

TEST(OomExecutorTest, StepBudgetBreachFailsStepAndSessionRecovers) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{1024}, "x");
  auto y = ops::Add(s, x, x);
  auto sess = rt.NewSession();
  const Tensor feed =
      Tensor::FromVector(std::vector<double>(1024, 1.0));

  RunOptions tight;
  tight.step_memory_limit_bytes = 512;  // output needs 8 KB
  auto r = sess->Run({{"x", feed}}, {y.name()}, {}, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_FALSE(IsTransientResourceExhausted(r.status()));

  // Same session, same cached signature, sane budget: the step succeeds.
  RunOptions roomy;
  roomy.step_memory_limit_bytes = 1 << 20;
  auto r2 = sess->Run({{"x", feed}}, {y.name()}, {}, roomy);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].data<double>()[0], 2.0);
}

TEST(OomExecutorTest, SessionDefaultBudgetAppliesWhenRunOptionsSilent) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{1024}, "x");
  auto y = ops::Mul(s, x, x);
  SessionOptions opts;
  opts.step_memory_limit_bytes = 512;
  auto sess = rt.NewSession(opts);
  const Tensor feed = Tensor::FromVector(std::vector<double>(1024, 3.0));
  auto r = sess->Run({{"x", feed}}, {y.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted);
}

TEST(OomExecutorTest, MidStepOomLeavesQueuesUsable) {
  GlobalAllocatorGuard guard;
  LocalRuntime rt(/*num_gpus=*/0);
  Scope s = rt.root_scope();
  auto x = ops::QueueDequeue(s, "work");
  auto y = ops::Add(s, x, x);
  auto sess = rt.NewSession();
  FIFOQueue* q = rt.resources().LookupOrCreateQueue("work", 0).value();
  ASSERT_TRUE(q->Enqueue(Tensor::Scalar(2.0)).ok());
  ASSERT_TRUE(q->Enqueue(Tensor::Scalar(5.0)).ok());

  AllocFaultSpec spec;
  spec.every_nth = 1;  // fail every fallible allocation while armed
  AllocFaultInjector::Global().Install(spec);
  auto r = sess->Run({}, {y.name()});
  AllocFaultInjector::Global().Disarm();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_TRUE(IsTransientResourceExhausted(r.status()));

  // The queue was not poisoned by the unwound step: the next step drains it.
  auto r2 = sess->Run({}, {y.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 10.0);
}

// ---- taxonomy helpers and retry classification ------------------------------

TEST(OomTaxonomyTest, TransientConstructorTagsAndClassifies) {
  Status t = TransientResourceExhausted("pool pressure");
  EXPECT_EQ(t.code(), Code::kResourceExhausted);
  EXPECT_TRUE(IsTransientResourceExhausted(t));
  // Idempotent: re-wrapping an already-tagged message does not double-tag.
  Status tt = TransientResourceExhausted(t.message());
  EXPECT_EQ(tt.message(), t.message());

  Status p = ResourceExhausted("per-step budget breach");
  EXPECT_FALSE(IsTransientResourceExhausted(p));
  EXPECT_FALSE(IsTransientResourceExhausted(Unavailable("not RE at all")));
}

TEST(OomTaxonomyTest, RetryPolicyRetriesTransientButNotPermanent) {
  // By code alone kResourceExhausted stays non-retryable (fault_tolerance
  // contract); the Status-level overload consults the transient tag.
  EXPECT_FALSE(IsRetryableCode(Code::kResourceExhausted));
  EXPECT_TRUE(IsRetryable(TransientResourceExhausted("pool pressure")));
  EXPECT_FALSE(IsRetryable(ResourceExhausted("fixed limit")));
  EXPECT_TRUE(IsRetryable(Unavailable("link down")));

  // CallWithRetry end-to-end: a transient OOM that clears on the second
  // attempt succeeds; a permanent one surfaces immediately.
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  int transient_calls = 0;
  Status st = distrib::CallWithRetry(policy, 1, [&]() -> Status {
    return ++transient_calls == 1 ? TransientResourceExhausted("once")
                                  : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(transient_calls, 2);

  int permanent_calls = 0;
  st = distrib::CallWithRetry(policy, 2, [&]() -> Status {
    ++permanent_calls;
    return ResourceExhausted("always");
  });
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_EQ(permanent_calls, 1) << "permanent OOM must not burn retries";
}

TEST(OomTaxonomyTest, TransientBitSurvivesTheWire) {
  wire::RpcEnvelope e;
  e.method = "RunStep";
  e.status_code = static_cast<int32_t>(Code::kResourceExhausted);
  e.status_msg = "injected allocation failure (1024 bytes)";
  e.transient = true;
  auto r = wire::RpcEnvelope::Parse(e.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->transient);
  EXPECT_EQ(r->status_msg, e.status_msg);

  e.transient = false;
  auto r2 = wire::RpcEnvelope::Parse(e.Serialize());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->transient);
}

// ---- serving: byte-budget admission -----------------------------------------

TEST(OomServingTest, OversizeEstimateRejectedPermanently) {
  ServingOptions opts;
  opts.max_estimated_bytes = 1000;
  ServingController ctl(opts);
  Status st = ctl.Admit("greedy", nullptr, 1500);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_FALSE(IsTransientResourceExhausted(st))
      << "an estimate that can never fit must not be retried: "
      << st.ToString();
  EXPECT_EQ(ctl.stats().rejected_oversize, 1);
  EXPECT_EQ(ctl.stats().inflight, 0);
  EXPECT_EQ(ctl.stats().inflight_bytes, 0);
}

TEST(OomServingTest, ByteBudgetQueuesUntilHeadroomReturns) {
  ServingOptions opts;
  opts.max_inflight = 8;  // slots are plentiful; bytes are the constraint
  opts.max_queued = 8;
  opts.max_estimated_bytes = 1000;
  ServingController ctl(opts);
  ASSERT_TRUE(ctl.Admit("a", nullptr, 600).ok());
  EXPECT_EQ(ctl.stats().inflight_bytes, 600);

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(ctl.Admit("b", nullptr, 600).ok());  // 1200 > 1000: waits
    granted.store(true);
    ctl.Release(600);
  });
  while (ctl.stats().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(granted.load()) << "no byte headroom yet";
  ctl.Release(600);  // frees the bytes -> queued ticket is granted
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(ctl.stats().inflight_bytes, 0);
  EXPECT_EQ(ctl.stats().inflight, 0);
  EXPECT_EQ(ctl.stats().completed, 2);
}

// ---- distributed: OOM as a wire status, step retry recovers ------------------

class OomDistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalAllocatorGuard::Reset();
    wire::ClusterDef def;
    wire::JobDef workers;
    workers.name = "worker";
    workers.task_addrs = {"oom-w0:1", "oom-w1:1"};
    def.jobs = {workers};
    spec_ = std::make_unique<ClusterSpec>(ClusterSpec::Create(def).value());
    ServerDef w0{*spec_, "worker", 0, 0};
    ServerDef w1{*spec_, "worker", 1, 0};
    w0_ = Server::Create(w0, &router_).value();
    w1_ = Server::Create(w1, &router_).value();
  }
  void TearDown() override { GlobalAllocatorGuard::Reset(); }

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

TEST_F(OomDistTest, TransientOomCrossesTheWireAsRetryableStatus) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{512}, "x");
  auto y = ops::Add(s, x, x);
  RemoteTask w0(&router_, "oom-w0:1", WireProtocol::kRdma);  // NoRetry
  ASSERT_TRUE(w0.ExtendGraph(g.ToGraphDef()).ok());
  auto handle = w0.RegisterStep({"x"}, {y.name()});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const Tensor feed = Tensor::FromVector(std::vector<double>(512, 1.0));

  AllocFaultSpec spec;
  spec.every_nth = 1;
  AllocFaultInjector::Global().Install(spec);
  auto r = w0.RunRegisteredStep(*handle, {{"x", feed}});
  AllocFaultInjector::Global().Disarm();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_TRUE(IsTransientResourceExhausted(r.status()))
      << "the transient bit must survive serialization: "
      << r.status().ToString();
  EXPECT_TRUE(IsRetryable(r.status()));

  // The worker is fully serviceable after the unwound step.
  auto r2 = w0.RunRegisteredStep(*handle, {{"x", feed}});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].data<double>()[0], 2.0);
}

TEST_F(OomDistTest, StepRetryRecoversFromTransientOom) {
  // A one-shot injected OOM (budgeted to cover exactly one allocation's
  // trim-retry pair) fails the first step attempt; the session unwinds the
  // step, classifies the transient kResourceExhausted as recoverable, and
  // the retried attempt — its injection budget spent — completes cleanly.
  // The whole graph is pinned to task 0 so the injector's failure budget is
  // consumed deterministically by one worker.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto x = ops::Placeholder(t0, DType::kF64, Shape{512}, "x");
  auto y = ops::Add(t0, x, x);
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), WorkerDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const Tensor feed = Tensor::FromVector(std::vector<double>(512, 3.0));

  AllocFaultSpec spec;
  spec.every_nth = 1;
  spec.max_failures = 2;  // both attempts of one allocation's retry loop
  AllocFaultInjector::Global().Install(spec);

  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 3;
  recovery.step_timeout_ms = 10000;
  FaultReport report;
  auto r = (*session)->Run({{"x", feed}}, {y.name()}, recovery, &report);
  AllocFaultInjector::Global().Disarm();
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[0], 6.0);
  EXPECT_EQ(report.step_attempts, 2) << report.ToString();
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.first_error.code(), Code::kResourceExhausted)
      << report.first_error.ToString();
}

TEST_F(OomDistTest, ServerWideStepBudgetRejectsPermanently) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{4096}, "x");
  auto y = ops::Add(s, x, x);

  wire::ClusterDef def;
  wire::JobDef worker;
  worker.name = "worker";
  worker.task_addrs = {"oom-tight:1"};
  def.jobs = {worker};
  auto spec = ClusterSpec::Create(def).value();
  ServerDef sdef{spec, "worker", 0, 0};
  sdef.step_memory_limit_bytes = 1024;  // output needs 32 KB
  auto server = Server::Create(sdef, &router_).value();

  RemoteTask c(&router_, "oom-tight:1", WireProtocol::kRdma);
  ASSERT_TRUE(c.ExtendGraph(g.ToGraphDef()).ok());
  auto handle = c.RegisterStep({"x"}, {y.name()});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const Tensor feed = Tensor::FromVector(std::vector<double>(4096, 1.0));
  auto r = c.RunRegisteredStep(*handle, {{"x", feed}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kResourceExhausted) << r.status().ToString();
  EXPECT_FALSE(IsTransientResourceExhausted(r.status()))
      << "per-step budget breaches must not be marked retryable";
  server->Shutdown();
}

}  // namespace
}  // namespace tfhpc
