// Tests for the graph partitioner and DistributedSession: cross-task data
// and control edges become matched _Send/_Recv pairs, one per edge; a
// multi-task graph runs distributed and agrees with local execution, also
// across an EvictAndRebuild re-ship.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "analysis/verifier.h"
#include "core/rng.h"
#include "distrib/dist_session.h"
#include "distrib/server.h"
#include "graph/ops.h"
#include "io/checkpoint.h"
#include "runtime/session.h"
#include "wire/coded.h"

namespace tfhpc::distrib {
namespace {

wire::ClusterDef TwoWorkers() {
  wire::ClusterDef def;
  wire::JobDef workers;
  workers.name = "worker";
  workers.task_addrs = {"pt-w0:1", "pt-w1:1"};
  def.jobs = {workers};
  return def;
}

DeviceName DefaultDev() {
  DeviceName d;
  d.job = "worker";
  d.task = 0;
  return d;
}

int CountOp(const wire::GraphDef& def, const std::string& op) {
  int n = 0;
  for (const auto& nd : def.nodes) n += nd.op == op;
  return n;
}

// ---- PartitionGraph ------------------------------------------------------------

TEST(PartitionTest, SingleTaskGraphIsUntouched) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Scalar(1.0));
  ops::Add(s, a, a);
  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto parts = PartitionGraph(g, spec, DefaultDev());
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->partitions.size(), 1u);
  const auto& part = parts->partitions.begin()->second;
  EXPECT_EQ(part.nodes.size(), 2u);
  EXPECT_EQ(CountOp(part, "_Send"), 0);
}

TEST(PartitionTest, CrossTaskEdgeGetsSendRecvPair) {
  Graph g;
  Scope s(&g);
  ops::Const(s.WithDevice("/job:worker/task:0/cpu:0"), Tensor::Scalar(2.0),
             "a");
  ops::Const(s.WithDevice("/job:worker/task:1/cpu:0"), Tensor::Scalar(3.0),
             "b");
  wire::NodeDef mul;
  mul.name = "prod";
  mul.op = "Mul";
  mul.inputs = {"a", "b"};
  mul.device = "/job:worker/task:1/cpu:0";
  ASSERT_TRUE(g.AddNode(mul).ok());

  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto parts = PartitionGraph(g, spec, DefaultDev());
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->partitions.size(), 2u);
  const auto& p0 = parts->partitions.at("pt-w0:1");
  const auto& p1 = parts->partitions.at("pt-w1:1");
  EXPECT_EQ(CountOp(p0, "_Send"), 1);
  EXPECT_EQ(CountOp(p1, "_Recv"), 1);
  EXPECT_EQ(parts->node_task.at("prod"), "pt-w1:1");
  // Every partition must be a valid graph on its own.
  EXPECT_TRUE(Graph::FromGraphDef(p0).ok());
  EXPECT_TRUE(Graph::FromGraphDef(p1).ok());
}

TEST(PartitionTest, SharedEdgeToOneTaskIsDeduplicated) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s.WithDevice("/job:worker/task:0/cpu:0"),
                      Tensor::Scalar(2.0), "a");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  ops::Add(t1, a, a);   // two data inputs from the same remote producer
  ops::Neg(t1, a);      // third consumer
  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto parts = PartitionGraph(g, spec, DefaultDev());
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(CountOp(parts->partitions.at("pt-w0:1"), "_Send"), 1);
  EXPECT_EQ(CountOp(parts->partitions.at("pt-w1:1"), "_Recv"), 1);
}

TEST(PartitionTest, ControlEdgeBecomesTokenSend) {
  Graph g;
  Scope s(&g);
  ops::Const(s.WithDevice("/job:worker/task:0/cpu:0"), Tensor::Scalar(1.0),
             "gate");
  wire::NodeDef gated;
  gated.name = "gated";
  gated.op = "Const";
  gated.inputs = {"^gate"};
  gated.device = "/job:worker/task:1/cpu:0";
  gated.attrs["value"] =
      wire::AttrValue::Str(wire::SerializeTensor(Tensor::Scalar(5.0)));
  gated.attrs["dtype"] = wire::AttrValue::Type(DType::kF64);
  ASSERT_TRUE(g.AddNode(gated).ok());

  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto parts = PartitionGraph(g, spec, DefaultDev());
  ASSERT_TRUE(parts.ok());
  const auto& p0 = parts->partitions.at("pt-w0:1");
  const auto& p1 = parts->partitions.at("pt-w1:1");
  EXPECT_EQ(CountOp(p0, "_Send"), 1);
  EXPECT_EQ(CountOp(p1, "_Recv"), 1);
  // The consumer's control input now points at the recv node.
  bool rewired = false;
  for (const auto& nd : p1.nodes) {
    if (nd.name == "gated") {
      ASSERT_EQ(nd.inputs.size(), 1u);
      EXPECT_EQ(nd.inputs[0][0], '^');
      EXPECT_NE(nd.inputs[0].find("_recv/"), std::string::npos);
      rewired = true;
    }
  }
  EXPECT_TRUE(rewired);
}

TEST(PartitionTest, UnresolvableTaskFails) {
  Graph g;
  Scope s(&g);
  ops::Const(s.WithDevice("/job:worker/task:7/cpu:0"), Tensor::Scalar(1.0));
  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  EXPECT_FALSE(PartitionGraph(g, spec, DefaultDev()).ok());
}

// ---- DistributedSession -----------------------------------------------------------

class DistSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = std::make_unique<ClusterSpec>(
        ClusterSpec::Create(TwoWorkers()).value());
    w0_ = Server::Create({*spec_, "worker", 0, 1}, &router_).value();
    w1_ = Server::Create({*spec_, "worker", 1, 1}, &router_).value();
  }

  InProcessRouter router_;
  std::unique_ptr<ClusterSpec> spec_;
  std::unique_ptr<Server> w0_, w1_;
};

TEST_F(DistSessionTest, CrossTaskPipelineMatchesLocal) {
  // y = (a+b) * c with (a+b) on task 0 and the multiply on task 1.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/gpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/gpu:0");
  auto a = ops::Const(t0, Tensor::FromVector(std::vector<double>{1, 2}), "a");
  auto b = ops::Const(t0, Tensor::FromVector(std::vector<double>{10, 20}),
                      "b");
  auto sum = ops::Add(t0, a, b);
  auto c = ops::Const(t1, Tensor::FromVector(std::vector<double>{3, 3}), "c");
  auto y = ops::Mul(t1, sum, c);

  auto session = DistributedSession::Create(&router_, *spec_,
                                            WireProtocol::kRdma,
                                            g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->num_partitions(), 2);
  EXPECT_EQ((*session)->TaskOf(y.node->name()).value(), "pt-w1:1");

  auto r = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[0], 33);
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 66);
}

TEST_F(DistSessionTest, FeedsRouteToOwningTask) {
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto x = ops::Placeholder(t0, DType::kF64, Shape{}, "x");
  auto two = ops::Const(t1, Tensor::Scalar(2.0));
  auto y = ops::Mul(t1, x, two);

  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kMpi, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());
  auto r = (*session)->Run({{"x", Tensor::Scalar(21.0)}}, {y.name()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 42.0);

  // Repeated steps with fresh feeds work (rendezvous keys drain per step).
  auto r2 = (*session)->Run({{"x", Tensor::Scalar(-1.0)}}, {y.name()});
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), -2.0);
}

TEST_F(DistSessionTest, FetchesFromBothTasksInOneStep) {
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(5.0), "a");
  auto double_a = ops::Mul(t1, a, ops::Const(t1, Tensor::Scalar(2.0)));
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());
  auto r = (*session)->Run({}, {double_a.name(), a.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 10.0);
  EXPECT_DOUBLE_EQ((*r)[1].scalar<double>(), 5.0);
}

TEST_F(DistSessionTest, MatMulPipelineAcrossTaskGpus) {
  // The model-parallel pipeline of examples/model_parallel, but across TWO
  // TASKS rather than two local devices — verified against local execution.
  const int64_t n = 16;
  Tensor x(DType::kF32, Shape{n, n});
  Tensor w1(DType::kF32, Shape{n, n});
  Tensor w2(DType::kF32, Shape{n, n});
  tfhpc::FillUniform(x, 1);
  tfhpc::FillUniform(w1, 2, -0.1, 0.1);
  tfhpc::FillUniform(w2, 3, -0.1, 0.1);

  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/gpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/gpu:0");
  auto cx = ops::Const(t0, x, "x");
  auto cw1 = ops::Const(t0, w1, "w1");
  auto h = ops::MatMul(t0, cx, cw1);
  auto cw2 = ops::Const(t1, w2, "w2");
  auto y = ops::MatMul(t1, h, cw2);

  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());
  auto dist = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();

  // Local reference.
  LocalRuntime rt(1);
  Scope ls = rt.root_scope();
  auto ref = rt.NewSession()->Run(
      {}, {ops::MatMul(ls, ops::MatMul(ls, ops::Const(ls, x),
                                       ops::Const(ls, w1)),
                       ops::Const(ls, w2))
               .name()});
  ASSERT_TRUE(ref.ok());
  const auto got = (*dist)[0].data<float>();
  const auto want = (*ref)[0].data<float>();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-4f);
  }
}

TEST_F(DistSessionTest, PeerFailureCancelsStepInsteadOfHanging) {
  // Task 0's partition fails (injected fault on its RunStep); task 1's
  // partition would block forever in _Recv without step cancellation.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(5.0), "a");
  auto y = ops::Mul(t1, a, ops::Const(t1, Tensor::Scalar(2.0)));

  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());

  router_.InjectFault("pt-w0:1", "RunStep", Unavailable("task 0 crashed"), 1);
  auto r = (*session)->Run({}, {y.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kUnavailable);  // root cause, not Cancelled

  // The session recovered: the same step succeeds afterwards.
  auto r2 = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 10.0);
}

TEST_F(DistSessionTest, UnknownFetchFails) {
  Graph g;
  Scope s(&g);
  ops::Const(s.WithDevice("/job:worker/task:0/cpu:0"), Tensor::Scalar(1.0));
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE((*session)->Run({}, {"ghost"}).ok());
}

// ---- SendDef metadata (drives client-side step pruning) ---------------------

TEST(PartitionTest, SendDefRecordsProducerAndEveryConsumer) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s.WithDevice("/job:worker/task:0/cpu:0"),
                      Tensor::Scalar(2.0), "a");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto add = ops::Add(t1, a, a);
  auto neg = ops::Neg(t1, a);
  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto parts = PartitionGraph(g, spec, DefaultDev());
  ASSERT_TRUE(parts.ok());

  // One deduplicated send out of task 0, but its SendDef must name BOTH
  // remote consumers — the pruner activates the send if either is fetched.
  ASSERT_EQ(parts->sends.count("pt-w0:1"), 1u);
  const auto& sends = parts->sends.at("pt-w0:1");
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].producer, "a");
  EXPECT_FALSE(sends[0].control);
  EXPECT_EQ(CountOp(parts->partitions.at("pt-w0:1"), "_Send"), 1);
  auto has = [&](const std::string& name) {
    const auto& c = sends[0].consumers;
    return std::find(c.begin(), c.end(), name) != c.end();
  };
  EXPECT_TRUE(has(add.node->name()));
  EXPECT_TRUE(has(neg.node->name()));
  // The recorded send name refers to a real node in the source partition.
  EXPECT_TRUE(Graph::FromGraphDef(parts->partitions.at("pt-w0:1"))
                  .value()
                  ->FindNode(sends[0].name) != nullptr);
}

TEST(PartitionTest, ControlSendDefMarkedAsControl) {
  Graph g;
  Scope s(&g);
  ops::Const(s.WithDevice("/job:worker/task:0/cpu:0"), Tensor::Scalar(1.0),
             "gate");
  wire::NodeDef gated;
  gated.name = "gated";
  gated.op = "Const";
  gated.inputs = {"^gate"};
  gated.device = "/job:worker/task:1/cpu:0";
  gated.attrs["value"] =
      wire::AttrValue::Str(wire::SerializeTensor(Tensor::Scalar(5.0)));
  gated.attrs["dtype"] = wire::AttrValue::Type(DType::kF64);
  ASSERT_TRUE(g.AddNode(gated).ok());
  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto parts = PartitionGraph(g, spec, DefaultDev());
  ASSERT_TRUE(parts.ok());
  const auto& sends = parts->sends.at("pt-w0:1");
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_TRUE(sends[0].control);
  EXPECT_EQ(sends[0].producer, "gate");
  EXPECT_EQ(sends[0].consumers, std::vector<std::string>{"gated"});
}

// ---- RunStepRequest wire format ---------------------------------------------

TEST(RunStepRequestTest, StepHandleRoundTrip) {
  RunStepRequest req;
  req.step_handle = 99;
  auto r = RunStepRequest::Parse(req.Serialize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->step_handle, 99u);
  // A request without the field parses to the "no handle" sentinel, which
  // the server refuses.
  auto legacy = RunStepRequest::Parse(RunStepRequest{}.Serialize());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->step_handle, 0u);
}

TEST(RunStepRequestTest, FeedsShareTheNamedTensorEntryEncoding) {
  RunStepRequest req;
  req.feeds.emplace("x", Tensor::Scalar(1.5));
  req.feeds.emplace("y:1", Tensor::Scalar(2.5));
  const std::string bytes = req.Serialize();
  // The feed entries are byte for byte a VarRestore payload.
  const std::string entries = EncodeNamedTensors(req.feeds);
  EXPECT_EQ(bytes.substr(0, entries.size()), entries);
  auto r = RunStepRequest::Parse(bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->feeds.size(), 2u);
  EXPECT_DOUBLE_EQ(r->feeds.at("y:1").scalar<double>(), 2.5);
}

TEST(RunStepRequestTest, FeedEntryWithoutNameIsRejected) {
  // An entry carrying a tensor but no name binds to no feed key.
  std::string entry;
  wire::CodedOutput eo(&entry);
  eo.WriteMessage(2, wire::SerializeTensor(Tensor::Scalar(1.0)));
  std::string payload;
  wire::CodedOutput co(&payload);
  co.WriteMessage(1, entry);
  co.WriteUInt64(5, 7);
  auto r = RunStepRequest::Parse(payload);
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
  // VarRestore's decoder refuses the same entry.
  EXPECT_EQ(DecodeNamedTensors(payload).status().code(),
            Code::kInvalidArgument);
  // So does an entry whose name is empty.
  RunStepRequest empty;
  empty.feeds.emplace("", Tensor::Scalar(1.0));
  EXPECT_EQ(RunStepRequest::Parse(empty.Serialize()).status().code(),
            Code::kInvalidArgument);
}

// ---- Compile-once distributed steps -----------------------------------------

TEST_F(DistSessionTest, UnrelatedPartitionGetsNoRpcAtAll) {
  // Two independent subgraphs, one per task. Fetching task 0's result must
  // not execute — or even contact — task 1 (the old runtime ran every
  // partition in full on every step).
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto y0 = ops::Add(t0, ops::Const(t0, Tensor::Scalar(1.0)),
                     ops::Const(t0, Tensor::Scalar(2.0)));
  auto y1 = ops::Mul(t1, ops::Const(t1, Tensor::Scalar(3.0)),
                     ops::Const(t1, Tensor::Scalar(4.0)));
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());

  auto r = (*session)->Run({}, {y0.name()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 3.0);
  EXPECT_EQ(w0_->nodes_executed(), 3);  // two consts + add
  EXPECT_EQ(w1_->nodes_executed(), 0);
  EXPECT_EQ(w1_->steps_registered(), 0) << "skipped partitions get no RPC";

  // The mirror step touches only task 1.
  auto r1 = (*session)->Run({}, {y1.name()});
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ((*r1)[0].scalar<double>(), 12.0);
  EXPECT_EQ(w0_->nodes_executed(), 3);
  EXPECT_EQ(w1_->nodes_executed(), 3);
}

TEST_F(DistSessionTest, StepExecutesOnlyTheFetchClosure) {
  // y = (a+b on t0) * c on t1, plus an orphan const on t1 outside the
  // closure. Exact node counts: t0 runs {a, b, sum, _send}; t1 runs
  // {_recv, c, mul} — never the orphan.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(1.0), "a");
  auto b = ops::Const(t0, Tensor::Scalar(10.0), "b");
  auto sum = ops::Add(t0, a, b);
  auto c = ops::Const(t1, Tensor::Scalar(3.0), "c");
  auto y = ops::Mul(t1, sum, c);
  ops::Const(t1, Tensor::Scalar(999.0), "orphan");
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());

  auto r = (*session)->Run({}, {y.name()});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 33.0);
  EXPECT_EQ(w0_->nodes_executed(), 4) << "a, b, sum, _send";
  EXPECT_EQ(w1_->nodes_executed(), 3) << "_recv, c, mul (orphan excluded)";
}

TEST_F(DistSessionTest, RepeatStepReusesHandlesAndPlan) {
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(5.0), "a");
  auto y = ops::Mul(t1, a, ops::Const(t1, Tensor::Scalar(2.0)));
  auto session = DistributedSession::Create(
      &router_, *spec_, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());

  for (int i = 0; i < 3; ++i) {
    auto r = (*session)->Run({}, {y.name()});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 10.0);
  }
  // One plan compiled, then served from cache; one RegisterStep per worker.
  EXPECT_EQ((*session)->plans_compiled(), 1);
  EXPECT_EQ((*session)->plan_cache_hits(), 2);
  EXPECT_EQ((*session)->plan_cache_size(), 1u);
  EXPECT_EQ(w0_->steps_registered(), 1);
  EXPECT_EQ(w1_->steps_registered(), 1);

  // A new signature compiles its own plan and registers fresh steps.
  auto r = (*session)->Run({}, {a.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*session)->plans_compiled(), 2);
  EXPECT_EQ(w0_->steps_registered(), 2);
  EXPECT_EQ(w1_->steps_registered(), 1) << "a-only step never reaches w1";
}

TEST(DistStepEvictionTest, EvictedHandleIsTransparentlyReRegistered) {
  // Workers capped at ONE registered step: alternating signatures evict
  // each other's handles, and the client must recover from kNotFound by
  // re-registering — invisible to the caller.
  InProcessRouter router;
  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  ServerDef d0{spec, "worker", 0, 0};
  ServerDef d1{spec, "worker", 1, 0};
  d0.max_registered_steps = d1.max_registered_steps = 1;
  auto w0 = Server::Create(d0, &router).value();
  auto w1 = Server::Create(d1, &router).value();

  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(3.0), "a");
  auto dbl = ops::Add(t0, a, a);
  auto sq = ops::Mul(t0, a, a);
  auto session = DistributedSession::Create(
      &router, spec, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok());

  auto run = [&](const Output& fetch, double want) {
    auto r = (*session)->Run({}, {fetch.name()});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), want);
  };
  run(dbl, 6.0);  // registers the dbl step
  run(sq, 9.0);   // evicts dbl's handle, registers sq
  run(dbl, 6.0);  // client plan cached, handle dead -> re-register
  run(sq, 9.0);
  EXPECT_EQ(w0->steps_registered(), 4);
  EXPECT_EQ((*session)->plans_compiled(), 2)
      << "re-registration must not recompile the client-side plan";
  EXPECT_EQ((*session)->plan_cache_hits(), 2);
}

// ---- Cross edges into one consumer ------------------------------------------
// Each cross-task edge keeps its own _Send/_Recv pair even when several feed
// the same consumer, and each pair crosses the wire on its own.

TEST(SharedConsumerSendTest, EachCrossEdgeGetsItsOwnSendRecvPair) {
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto a = ops::Const(t0, Tensor::Scalar(2.0), "a");
  auto b = ops::Const(t0, Tensor::Scalar(3.0), "b");
  auto sum = ops::Add(t1, a, b);  // both cross edges feed the same consumer

  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto parts = PartitionGraph(g, spec, DefaultDev());
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_EQ(CountOp(parts->partitions.at("pt-w0:1"), "_Send"), 2);
  EXPECT_EQ(CountOp(parts->partitions.at("pt-w1:1"), "_Recv"), 2);

  // One SendDef per edge, each naming the Add as its consumer.
  const auto& sends = parts->sends.at("pt-w0:1");
  ASSERT_EQ(sends.size(), 2u);
  std::set<std::string> producers;
  for (const SendDef& sd : sends) {
    EXPECT_FALSE(sd.control);
    EXPECT_EQ(sd.consumers, std::vector<std::string>{sum.node->name()});
    producers.insert(sd.producer);
  }
  EXPECT_EQ(producers, (std::set<std::string>{"a", "b"}));

  const auto diags = analysis::VerifyPartitions(parts->partitions);
  EXPECT_FALSE(analysis::HasErrors(diags))
      << analysis::FormatDiagnostics(diags);
}

TEST(SharedConsumerSendTest, SendsRoundTripThroughServers) {
  InProcessRouter router;
  auto spec = ClusterSpec::Create(TwoWorkers()).value();
  auto w0 = Server::Create({spec, "worker", 0, 1}, &router).value();
  auto w1 = Server::Create({spec, "worker", 1, 1}, &router).value();

  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto x = ops::Placeholder(t0, DType::kF64, Shape{3}, "x");
  auto p = ops::Mul(t0, x, ops::Const(t0, Tensor::Scalar(2.0)));
  auto q = ops::Mul(t0, x, ops::Const(t0, Tensor::Scalar(3.0)));
  auto y = ops::Add(t1, p, q);  // p and q cross to the same consumer

  auto session = DistributedSession::Create(&router, spec, WireProtocol::kRdma,
                                            g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  const Tensor feed = Tensor::FromVector(std::vector<double>{1, 2, 3});
  for (int step = 0; step < 2; ++step) {
    auto r = (*session)->Run({{"x", feed}}, {y.name()});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[0], 5.0);
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 10.0);
    EXPECT_DOUBLE_EQ((*r)[0].data<double>()[2], 15.0);
  }
}

TEST(SharedConsumerSendTest, SendsSurviveEvictAndRebuild) {
  const std::string tag = "cv";
  const std::string w0_addr = tag + "-w0:1";
  const std::string w1_addr = tag + "-w1:1";
  const std::string spare_addr = tag + "-spare:1";
  auto mk_cluster = [](const std::vector<std::string>& addrs) {
    wire::ClusterDef def;
    wire::JobDef workers;
    workers.name = "worker";
    workers.task_addrs = addrs;
    def.jobs = {workers};
    return ClusterSpec::Create(def).value();
  };
  ClusterSpec cluster = mk_cluster({w0_addr, w1_addr});
  ClusterSpec spare_cluster = mk_cluster({w0_addr, spare_addr});

  InProcessRouter router;
  RetryPolicy send_retry = RetryPolicy::Aggressive(1000);
  ServerDef d0{cluster, "worker", 0, 0};
  ServerDef d1{cluster, "worker", 1, 0};
  ServerDef ds{spare_cluster, "worker", 1, 0};
  d0.send_retry = d1.send_retry = ds.send_retry = send_retry;
  auto w0 = Server::Create(d0, &router).value();
  auto w1 = Server::Create(d1, &router).value();
  auto spare = Server::Create(ds, &router).value();

  HealthOptions health;
  health.heartbeat_interval_ms = 5;
  health.suspect_after_ms = 40;
  health.dead_after_ms = 120;
  HealthMonitor monitor(&router, health);
  monitor.Watch(w0_addr);
  monitor.Watch(w1_addr);
  monitor.Start();

  const std::string ckpt_dir = ::testing::TempDir() + "/shared_send_evict";
  std::filesystem::remove_all(ckpt_dir);
  io::CheckpointManager checkpoints(
      io::CheckpointManagerOptions{ckpt_dir, "job", 3});

  // acc += 1 on task 0; its doubled and tripled views cross to task 1 as
  // two sends into the same consumer; sum += 5*acc on task 1.
  Graph g;
  Scope s(&g);
  auto t0 = s.WithDevice("/job:worker/task:0/cpu:0");
  auto t1 = s.WithDevice("/job:worker/task:1/cpu:0");
  auto acc = ops::Variable(t0, "acc", DType::kF64, Shape{});
  auto bump = ops::AssignAdd(t0, acc, ops::Const(t0, Tensor::Scalar(1.0)));
  auto p = ops::Mul(t0, bump, ops::Const(t0, Tensor::Scalar(2.0)));
  auto q = ops::Mul(t0, bump, ops::Const(t0, Tensor::Scalar(3.0)));
  auto sum = ops::Variable(t1, "sum", DType::kF64, Shape{});
  auto total = ops::AssignAdd(t1, sum, ops::Add(t1, p, q));

  auto session = DistributedSession::Create(
      &router, cluster, WireProtocol::kRdma, g.ToGraphDef(), DefaultDev());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(RemoteTask(&router, w0_addr, WireProtocol::kRdma)
                  .VarAssign("acc", Tensor::Scalar(0.0))
                  .ok());
  ASSERT_TRUE(RemoteTask(&router, w1_addr, WireProtocol::kRdma)
                  .VarAssign("sum", Tensor::Scalar(0.0))
                  .ok());

  StepRecoveryOptions recovery;
  recovery.max_step_attempts = 3;
  recovery.rpc_retry = RetryPolicy::Aggressive(500);
  recovery.health = &monitor;
  recovery.checkpoints = &checkpoints;
  recovery.checkpoint_every_n_steps = 1;
  recovery.spare_addrs = {spare_addr};
  recovery.dead_verdict_wait_ms = 5000;

  // Two clean steps: acc=1,sum=5 then acc=2,sum=15.
  for (int step = 1; step <= 2; ++step) {
    auto r = (*session)->Run({}, {total.name()}, recovery, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_TRUE(checkpoints.WaitForPending().ok());

  // Kill the consumer task. The rebuild re-partitions, ships the consumer's
  // partition (both _Recvs) to the spare and the step completes with the
  // restored state: sum = 15 + 5*3 = 30.
  router.Kill(w1_addr);
  FaultReport report;
  auto r = (*session)->Run({}, {total.name()}, recovery, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString() << " " << report.ToString();
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 30.0);
  EXPECT_EQ(report.workers_evicted, 1) << report.ToString();

  monitor.Stop();
  (void)checkpoints.WaitForPending();
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
}

}  // namespace
}  // namespace tfhpc::distrib
