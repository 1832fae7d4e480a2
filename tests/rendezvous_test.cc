// Tests for the rendezvous (_Send/_Recv), the cross-task wire path, the
// token-queue barrier, and transport fault injection.
#include <gtest/gtest.h>

#include <thread>

#include "distrib/barrier.h"
#include "distrib/client.h"
#include "distrib/server.h"
#include "graph/ops.h"
#include "runtime/rendezvous.h"

namespace tfhpc {
namespace {

// ---- Rendezvous core ------------------------------------------------------------

TEST(RendezvousTest, SendThenRecv) {
  Rendezvous rv;
  ASSERT_TRUE(rv.Send("k", Tensor::Scalar(1.5)).ok());
  auto r = rv.Recv("k");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar<double>(), 1.5);
  EXPECT_EQ(rv.pending_keys(), 0u);
}

TEST(RendezvousTest, RecvBlocksUntilSend) {
  Rendezvous rv;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(rv.Send("late", Tensor::Scalar(7.0)).ok());
  });
  auto r = rv.Recv("late");
  sender.join();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar<double>(), 7.0);
}

TEST(RendezvousTest, KeysAreIndependentAndFifo) {
  Rendezvous rv;
  ASSERT_TRUE(rv.Send("a", Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(rv.Send("b", Tensor::Scalar(2.0)).ok());
  ASSERT_TRUE(rv.Send("a", Tensor::Scalar(3.0)).ok());
  EXPECT_DOUBLE_EQ(rv.Recv("b")->scalar<double>(), 2.0);
  EXPECT_DOUBLE_EQ(rv.Recv("a")->scalar<double>(), 1.0);
  EXPECT_DOUBLE_EQ(rv.Recv("a")->scalar<double>(), 3.0);
}

TEST(RendezvousTest, AbortWakesWaiters) {
  Rendezvous rv;
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rv.Abort(Cancelled("shutting down"));
  });
  auto r = rv.Recv("never");
  aborter.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kCancelled);
  // Post-abort operations fail too.
  EXPECT_FALSE(rv.Send("x", Tensor::Scalar(1.0)).ok());
}

TEST(RendezvousTest, ResetClearsAbortAndPendingItems) {
  Rendezvous rv;
  ASSERT_TRUE(rv.Send("stale", Tensor::Scalar(1.0)).ok());
  rv.Abort(Cancelled("step failed"));
  EXPECT_FALSE(rv.Send("x", Tensor::Scalar(2.0)).ok());
  rv.Reset();
  EXPECT_EQ(rv.pending_keys(), 0u);  // stale item dropped
  ASSERT_TRUE(rv.Send("x", Tensor::Scalar(3.0)).ok());
  EXPECT_DOUBLE_EQ(rv.Recv("x")->scalar<double>(), 3.0);
}

// ---- _Send/_Recv through the graph -------------------------------------------------

TEST(SendRecvOpTest, LocalRoundTripInOneStep) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto v = ops::Const(s, Tensor::Scalar(4.25));
  auto send = ops::Send(s, v, "edge0");
  auto recv = ops::Recv(s, "edge0");
  auto r = rt.NewSession()->Run({}, {recv.name()}, {send.node->name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 4.25);
}

TEST(SendRecvOpTest, RemoteSendWithoutWireFails) {
  LocalRuntime rt(1);  // no Server => no remote hook
  Scope s = rt.root_scope();
  auto v = ops::Const(s, Tensor::Scalar(1.0));
  auto send = ops::Send(s, v, "k", /*target=*/"elsewhere:1");
  auto r = rt.NewSession()->Run({}, {}, {send.node->name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kFailedPrecondition);
}

// ---- Cross-task rendezvous over the wire --------------------------------------------

class CrossTaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wire::ClusterDef def;
    wire::JobDef workers;
    workers.name = "worker";
    workers.task_addrs = {"xt0:1", "xt1:1"};
    def.jobs = {workers};
    auto spec = distrib::ClusterSpec::Create(def);
    ASSERT_TRUE(spec.ok());
    w0_ = distrib::Server::Create({*spec, "worker", 0, 1}, &router_).value();
    w1_ = distrib::Server::Create({*spec, "worker", 1, 1}, &router_).value();
  }

  distrib::InProcessRouter router_;
  std::unique_ptr<distrib::Server> w0_, w1_;
};

TEST_F(CrossTaskTest, SendOnW0RecvOnW1) {
  // Graph on w0: _Send(value, key, target=w1). Graph on w1: _Recv(key).
  Scope s0(&w0_->graph());
  auto v = ops::Const(s0, Tensor::FromVector(std::vector<double>{1, 2, 3}));
  auto send = ops::Send(s0, v, "halo", "xt1:1");

  Scope s1(&w1_->graph());
  auto recv = ops::Recv(s1, "halo");

  // Receiver blocks on its own thread; sender runs after a beat.
  Result<std::vector<Tensor>> recv_result(Internal("unset"));
  std::thread receiver([&] {
    recv_result = w1_->NewSession()->Run({}, {recv.name()});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(w0_->NewSession()->Run({}, {}, {send.node->name()}).ok());
  receiver.join();
  ASSERT_TRUE(recv_result.ok()) << recv_result.status().ToString();
  EXPECT_DOUBLE_EQ((*recv_result)[0].data<double>()[2], 3.0);
}

TEST_F(CrossTaskTest, BidirectionalExchangeSameStep) {
  // Halo exchange: both tasks send to each other and receive, in one step
  // per task — the domain-decomposition pattern the paper's §VIII says the
  // PS model struggles with, expressed with explicit rendezvous edges.
  Scope s0(&w0_->graph());
  auto send0 = ops::Send(s0, ops::Const(s0, Tensor::Scalar(10.0)), "to1",
                         "xt1:1");
  auto recv0 = ops::Recv(s0, "to0");
  Scope s1(&w1_->graph());
  auto send1 = ops::Send(s1, ops::Const(s1, Tensor::Scalar(20.0)), "to0",
                         "xt0:1");
  auto recv1 = ops::Recv(s1, "to1");

  Result<std::vector<Tensor>> r0(Internal("unset")), r1(Internal("unset"));
  std::thread t0([&] {
    r0 = w0_->NewSession()->Run({}, {recv0.name()}, {send0.node->name()});
  });
  std::thread t1([&] {
    r1 = w1_->NewSession()->Run({}, {recv1.name()}, {send1.node->name()});
  });
  t0.join();
  t1.join();
  ASSERT_TRUE(r0.ok() && r1.ok());
  EXPECT_DOUBLE_EQ((*r0)[0].scalar<double>(), 20.0);
  EXPECT_DOUBLE_EQ((*r1)[0].scalar<double>(), 10.0);
}

TEST_F(CrossTaskTest, ServerShutdownAbortsPendingRecv) {
  Scope s1(&w1_->graph());
  auto recv = ops::Recv(s1, "never_sent");
  Result<std::vector<Tensor>> result(Internal("unset"));
  std::thread receiver([&] {
    result = w1_->NewSession()->Run({}, {recv.name()});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w1_->Shutdown();  // unblocks the pending recv; join BEFORE destroying
  receiver.join();
  w1_.reset();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kCancelled);
}

// ---- Fault injection ------------------------------------------------------------------

TEST_F(CrossTaskTest, InjectedFaultSurfacesAndClears) {
  distrib::RemoteTask w1(&router_, "xt1:1", distrib::WireProtocol::kRdma);
  router_.InjectFault("xt1:1", "VarWrite", Unavailable("link flap"), 2);
  EXPECT_EQ(w1.VarAssign("x", Tensor::Scalar(1.0)).code(), Code::kUnavailable);
  EXPECT_EQ(w1.VarAssign("x", Tensor::Scalar(1.0)).code(), Code::kUnavailable);
  // Third attempt succeeds (fault exhausted) — retry-style recovery works.
  EXPECT_TRUE(w1.VarAssign("x", Tensor::Scalar(1.0)).ok());
  EXPECT_DOUBLE_EQ(w1.VarRead("x")->scalar<double>(), 1.0);
}

TEST_F(CrossTaskTest, WildcardFaultMatchesAnyMethod) {
  distrib::RemoteTask w0(&router_, "xt0:1", distrib::WireProtocol::kGrpc);
  router_.InjectFault("xt0:1", "*", DeadlineExceeded("timeout"), 1);
  EXPECT_EQ(w0.Ping().code(), Code::kDeadlineExceeded);
  EXPECT_TRUE(w0.Ping().ok());
  router_.InjectFault("xt0:1", "*", DeadlineExceeded("timeout"), 1);
  router_.ClearFaults();
  EXPECT_TRUE(w0.Ping().ok());
}

TEST_F(CrossTaskTest, FaultDuringRemoteSendPropagatesToStep) {
  Scope s0(&w0_->graph());
  auto send = ops::Send(s0, ops::Const(s0, Tensor::Scalar(1.0)), "k",
                        "xt1:1");
  router_.InjectFault("xt1:1", "RendezvousSend", Unavailable("down"), 1);
  auto r = w0_->NewSession()->Run({}, {}, {send.node->name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kUnavailable);
  // The send went out through RemoteTask, whose errors name the callee.
  EXPECT_NE(r.status().message().find("xt1:1/RendezvousSend"),
            std::string::npos)
      << r.status().ToString();
}

// ---- QueueBarrier --------------------------------------------------------------------

TEST(QueueBarrierTest, SynchronizesWorkersAcrossRounds) {
  distrib::InProcessRouter router;
  wire::ClusterDef def;
  wire::JobDef ps;
  ps.name = "ps";
  ps.task_addrs = {"bar-ps:1"};
  def.jobs = {ps};
  auto spec = distrib::ClusterSpec::Create(def).value();
  auto server = distrib::Server::Create({spec, "ps", 0, 0}, &router).value();

  constexpr int kWorkers = 4;
  constexpr int kRounds = 5;
  std::thread coordinator([&] {
    ASSERT_TRUE(distrib::QueueBarrier::RunCoordinator(
                    &router, "bar-ps:1", distrib::WireProtocol::kRdma, "sync",
                    kWorkers, kRounds)
                    .ok());
  });

  std::atomic<int> in_critical{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      distrib::QueueBarrier barrier(&router, "bar-ps:1",
                                    distrib::WireProtocol::kRdma, "sync",
                                    kWorkers);
      for (int round = 0; round < kRounds; ++round) {
        auto r = barrier.Arrive(w);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(*r, round);  // coordinator round numbers line up
        // Between barriers, phases must not overlap by more than the
        // worker count of one round.
        const int now = in_critical.fetch_add(1) + 1;
        if (now > kWorkers) overlap = true;
        std::this_thread::yield();
        in_critical.fetch_sub(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  coordinator.join();
  EXPECT_FALSE(overlap.load());
}

TEST(QueueBarrierTest, BadWorkerIdRejected) {
  distrib::InProcessRouter router;
  distrib::QueueBarrier barrier(&router, "nowhere:1",
                                distrib::WireProtocol::kRdma, "b", 2);
  EXPECT_FALSE(barrier.Arrive(5).ok());
  EXPECT_FALSE(barrier.Arrive(-1).ok());
}

}  // namespace
}  // namespace tfhpc
