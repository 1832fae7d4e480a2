// Tests for the distributed runtime: cluster specs, transports (protocol
// staging semantics), servers (queue/variable/graph services), client
// proxies, and the paper's parameter-server + reducer patterns end to end.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <thread>

#include "cluster/slurm.h"
#include "distrib/client.h"
#include "distrib/server.h"
#include "graph/ops.h"
#include "wire/coded.h"

namespace tfhpc::distrib {
namespace {

wire::ClusterDef TwoTaskCluster() {
  wire::ClusterDef def;
  wire::JobDef ps;
  ps.name = "ps";
  ps.task_addrs = {"t01n01:8888"};
  wire::JobDef worker;
  worker.name = "worker";
  worker.task_addrs = {"t01n02:8888", "t01n03:8888"};
  def.jobs = {ps, worker};
  return def;
}

// ---- ClusterSpec -------------------------------------------------------------

TEST(ClusterSpecTest, LookupAndCounts) {
  auto spec = ClusterSpec::Create(TwoTaskCluster());
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->NumTasks("worker"), 2);
  EXPECT_EQ(spec->NumTasks("ps"), 1);
  EXPECT_EQ(spec->NumTasks("nope"), 0);
  EXPECT_EQ(spec->TotalTasks(), 3);
  EXPECT_EQ(spec->TaskAddress("worker", 1).value(), "t01n03:8888");
  EXPECT_FALSE(spec->TaskAddress("worker", 5).ok());
  EXPECT_FALSE(spec->TaskAddress("gone", 0).ok());
}

TEST(ClusterSpecTest, ValidationRejectsBadDefs) {
  wire::ClusterDef empty;
  EXPECT_FALSE(ClusterSpec::Create(empty).ok());

  wire::ClusterDef dup = TwoTaskCluster();
  dup.jobs[1].task_addrs.push_back("t01n01:8888");  // duplicate address
  EXPECT_FALSE(ClusterSpec::Create(dup).ok());

  wire::ClusterDef noport = TwoTaskCluster();
  noport.jobs[0].task_addrs[0] = "hostonly";
  EXPECT_FALSE(ClusterSpec::Create(noport).ok());
}

// ---- Transport staging semantics -----------------------------------------------

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(router_
                    .Register("echo:1",
                              [](const wire::RpcEnvelope& req) {
                                wire::RpcEnvelope resp;
                                resp.method = req.method;
                                resp.request_id = req.request_id;
                                resp.payload = req.payload;
                                return resp;
                              })
                    .ok());
  }
  InProcessRouter router_;
};

TEST_F(TransportTest, PayloadSurvivesEveryProtocol) {
  std::string payload(4096, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  for (WireProtocol p :
       {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
    wire::RpcEnvelope req;
    req.method = "Echo";
    req.request_id = 9;
    req.payload = payload;
    auto resp = router_.Call("echo:1", p, req);
    ASSERT_TRUE(resp.ok()) << WireProtocolName(p);
    EXPECT_EQ(resp->payload, payload) << WireProtocolName(p);
    EXPECT_EQ(resp->request_id, 9u);
  }
}

TEST_F(TransportTest, StagingCopyCountsDifferByProtocol) {
  const int64_t n = 1 << 20;
  wire::RpcEnvelope req;
  req.method = "Echo";
  req.payload = std::string(static_cast<size_t>(n), 'x');

  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kRdma, req).ok());
  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kMpi, req).ok());
  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kGrpc, req).ok());

  // RDMA: exactly one payload copy, payload never protobuf-serialized.
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).bytes_copied.load(), n);
  EXPECT_LT(router_.stats(WireProtocol::kRdma).bytes_serialized.load(), 256);
  // MPI: two payload copies (staging + wire).
  EXPECT_EQ(router_.stats(WireProtocol::kMpi).bytes_copied.load(), 2 * n);
  EXPECT_LT(router_.stats(WireProtocol::kMpi).bytes_serialized.load(), 256);
  // gRPC: the whole envelope is serialized (>= payload bytes).
  EXPECT_GE(router_.stats(WireProtocol::kGrpc).bytes_serialized.load(), n);
}

TEST_F(TransportTest, ViewPayloadsFollowProtocolStagingSemantics) {
  const int64_t n = 1 << 18;  // 256K f32 = 1 MB of tensor content
  Tensor t(DType::kF32, Shape{n});
  for (int64_t i = 0; i < n; ++i) {
    t.mutable_data<float>()[static_cast<size_t>(i)] = static_cast<float>(i);
  }
  wire::PayloadRef view = wire::SerializeTensorView(t);
  ASSERT_TRUE(view.is_view());
  const int64_t content = static_cast<int64_t>(view.view_size());
  const int64_t total = static_cast<int64_t>(view.size());
  ASSERT_GE(content, t.bytes());

  auto send = [&](WireProtocol p) {
    wire::RpcEnvelope req;
    req.method = "Echo";
    req.payload = view;
    auto resp = router_.Call("echo:1", p, req);
    ASSERT_TRUE(resp.ok()) << WireProtocolName(p);
    // Representation-independent equality: the delivered payload decodes to
    // the same tensor whether it crossed as a view or as flattened bytes.
    EXPECT_EQ(wire::PayloadChecksum(resp->payload), wire::PayloadChecksum(view))
        << WireProtocolName(p);
  };

  // RDMA: the buffer reference crosses — zero payload copy bytes.
  router_.ResetStats();
  send(WireProtocol::kRdma);
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).bytes_copied.load(), 0);
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).views_forwarded.load(), 1);
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).bytes_forwarded.load(), content);

  // MPI: registered memory is staged exactly once (vs 2x for inline bytes).
  router_.ResetStats();
  send(WireProtocol::kMpi);
  EXPECT_EQ(router_.stats(WireProtocol::kMpi).bytes_copied.load(), total);
  EXPECT_EQ(router_.stats(WireProtocol::kMpi).views_forwarded.load(), 0);

  // gRPC: views change nothing — the envelope is flattened into protobuf
  // exactly as inline bytes are (same serialized and copied byte counts).
  router_.ResetStats();
  send(WireProtocol::kGrpc);
  const int64_t grpc_view_ser =
      router_.stats(WireProtocol::kGrpc).bytes_serialized.load();
  const int64_t grpc_view_cp =
      router_.stats(WireProtocol::kGrpc).bytes_copied.load();
  router_.ResetStats();
  wire::RpcEnvelope inline_req;
  inline_req.method = "Echo";
  inline_req.payload = view.Flatten();
  ASSERT_TRUE(router_.Call("echo:1", WireProtocol::kGrpc, inline_req).ok());
  EXPECT_EQ(router_.stats(WireProtocol::kGrpc).bytes_serialized.load(),
            grpc_view_ser);
  EXPECT_EQ(router_.stats(WireProtocol::kGrpc).bytes_copied.load(),
            grpc_view_cp);
  EXPECT_GE(grpc_view_ser, total);
}

// The handler sees the payload exactly as the transport staged it.
class TransportStagingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(router_
                    .Register("capture:1",
                              [this](const wire::RpcEnvelope& req) {
                                captured_ = req.payload;
                                return wire::RpcEnvelope();
                              })
                    .ok());
  }
  wire::PayloadRef Deliver(WireProtocol p, const wire::PayloadRef& payload) {
    wire::RpcEnvelope req;
    req.method = "Capture";
    req.payload = payload;
    EXPECT_TRUE(router_.Call("capture:1", p, req).ok());
    return std::move(captured_);
  }
  InProcessRouter router_;
  wire::PayloadRef captured_;
};

// gRPC parses the received frame in place: the payload is one range of the
// frame's block, read without another copy, whatever the sender passed.
TEST_F(TransportStagingTest, GrpcPayloadIsOneViewOfTheReceivedFrame) {
  Tensor t(DType::kF32, Shape{1000});
  for (int i = 0; i < 1000; ++i) t.mutable_data<float>()[i] = i * 0.5f;
  const wire::PayloadRef view = wire::SerializeTensorView(t);
  for (const wire::PayloadRef& sent :
       {view, wire::PayloadRef(view.Flatten())}) {
    const wire::PayloadRef got = Deliver(WireProtocol::kGrpc, sent);
    ASSERT_TRUE(got.is_view());
    EXPECT_TRUE(got.head().empty());
    EXPECT_NE(got.buffer(), t.buffer());
    EXPECT_GT(got.view_offset(), 0u) << "the payload follows the frame header";
    EXPECT_EQ(got, sent);
  }
}

// MPI stages a view payload's content once, into a block of exactly the
// content's size, which the receiver adopts as the tensor's buffer.
TEST_F(TransportStagingTest, MpiViewContentArrivesInAnExactSizeBlock) {
  Tensor t(DType::kF64, Shape{257});
  for (int i = 0; i < 257; ++i) t.mutable_data<double>()[i] = i - 100.0;
  const wire::PayloadRef view = wire::SerializeTensorView(t);
  const wire::PayloadRef got = Deliver(WireProtocol::kMpi, view);
  ASSERT_TRUE(got.is_view());
  EXPECT_EQ(got.head(), view.head());
  EXPECT_NE(got.buffer(), t.buffer()) << "MPI copies; only RDMA forwards";
  EXPECT_EQ(got.view_offset(), 0u);
  EXPECT_EQ(got.buffer()->size(), got.view_size());
  EXPECT_EQ(got, view);
  auto parsed = wire::ParseTensorView(got);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->buffer(), got.buffer()) << "adopted, not copied";
  EXPECT_TRUE(parsed->BitwiseEquals(t));
}

TEST_F(TransportTest, ViewAndInlinePayloadsAreWireIdentical) {
  Tensor t(DType::kF64, Shape{257});  // odd size: exercises framing edges
  for (int i = 0; i < 257; ++i) t.mutable_data<double>()[i] = i * 0.25;
  wire::PayloadRef view = wire::SerializeTensorView(t);
  ASSERT_TRUE(view.is_view());
  EXPECT_EQ(view.Flatten(), wire::SerializeTensor(t));
  EXPECT_EQ(wire::PayloadChecksum(view),
            wire::PayloadChecksum(wire::SerializeTensor(t)));
  // And both representations parse back to the same tensor.
  auto parsed = wire::ParseTensorView(view);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->shape(), t.shape());
  EXPECT_DOUBLE_EQ(parsed->data<double>()[256], 64.0);
}

TEST_F(TransportTest, UnknownAddressUnavailable) {
  wire::RpcEnvelope req;
  req.method = "Echo";
  EXPECT_EQ(router_.Call("ghost:1", WireProtocol::kRdma, req).status().code(),
            Code::kUnavailable);
}

// ---- Server + client ---------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = ClusterSpec::Create(TwoTaskCluster());
    ASSERT_TRUE(spec.ok());
    ServerDef ps_def{*spec, "ps", 0, /*num_gpus=*/0};
    ServerDef w0_def{*spec, "worker", 0, /*num_gpus=*/1};
    ServerDef w1_def{*spec, "worker", 1, /*num_gpus=*/1};
    ps_ = Server::Create(ps_def, &router_).value();
    w0_ = Server::Create(w0_def, &router_).value();
    w1_ = Server::Create(w1_def, &router_).value();
  }

  RemoteTask Client(const std::string& addr,
                    WireProtocol p = WireProtocol::kRdma) {
    return RemoteTask(&router_, addr, p);
  }

  InProcessRouter router_;
  std::unique_ptr<Server> ps_, w0_, w1_;
};

TEST_F(ServerTest, PingAllTasks) {
  for (const char* addr : {"t01n01:8888", "t01n02:8888", "t01n03:8888"}) {
    EXPECT_TRUE(Client(addr).Ping().ok()) << addr;
  }
}

TEST_F(ServerTest, DuplicateBindRejected) {
  auto spec = ClusterSpec::Create(TwoTaskCluster()).value();
  ServerDef dup{spec, "ps", 0, 0};
  EXPECT_FALSE(Server::Create(dup, &router_).ok());
}

TEST_F(ServerTest, RemoteVariableAssignAddIsTheStreamPush) {
  auto client = Client("t01n01:8888");
  Tensor v = Tensor::FromVector(std::vector<double>{1, 2, 3});
  ASSERT_TRUE(client.VarAssignAdd("acc", v).ok());
  ASSERT_TRUE(client.VarAssignAdd("acc", v).ok());
  auto r = client.VarRead("acc");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->data<double>()[2], 6.0);
}

// The server's VarAssignAdd builds the sum in a fresh buffer: a snapshot of
// the variable taken before the push keeps its bits, whichever protocol
// delivered the delta (over RDMA the old value even shares the client's
// buffer).
TEST_F(ServerTest, VarAssignAddLeavesHeldSnapshotUnchanged) {
  for (WireProtocol p :
       {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
    auto client = Client("t01n01:8888", p);
    const std::string var = std::string("held_") + WireProtocolName(p);
    const Tensor v = Tensor::FromVector(std::vector<double>{1.5, -2.25, 3});
    ASSERT_TRUE(client.VarAssign(var, v).ok());
    const Tensor held =
        ps_->resources().LookupOrCreateVariable(var)->Read().value();
    const Tensor held_bits = held.Clone();
    ASSERT_TRUE(client.VarAssignAdd(var, v).ok()) << WireProtocolName(p);
    EXPECT_TRUE(held.BitwiseEquals(held_bits)) << WireProtocolName(p);
    EXPECT_TRUE(v.BitwiseEquals(held_bits)) << WireProtocolName(p);
    auto r = client.VarRead(var);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->data<double>()[1], -4.5);
  }
}

TEST_F(ServerTest, RemoteVariableAssignOverwrites) {
  auto client = Client("t01n01:8888");
  ASSERT_TRUE(client.VarAssign("x", Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(client.VarAssign("x", Tensor::Scalar(5.0)).ok());
  EXPECT_DOUBLE_EQ(client.VarRead("x")->scalar<double>(), 5.0);
}

TEST_F(ServerTest, RdmaVarAssignCrossesWithZeroPayloadCopies) {
  auto client = Client("t01n01:8888", WireProtocol::kRdma);
  const int64_t n = 1 << 16;
  Tensor big(DType::kF32, Shape{n});
  for (int64_t i = 0; i < n; ++i) {
    big.mutable_data<float>()[static_cast<size_t>(i)] =
        static_cast<float>(i % 97);
  }
  router_.ResetStats();
  ASSERT_TRUE(client.VarAssign("zc", big).ok());
  const TransportStats& st = router_.stats(WireProtocol::kRdma);
  // End to end: the tensor rode as a buffer view, never staged.
  EXPECT_EQ(st.bytes_copied.load(), 0);
  EXPECT_EQ(st.views_forwarded.load(), 1);
  EXPECT_GE(st.bytes_forwarded.load(), big.bytes());
  // And the server adopted real data, not a dangling reference.
  auto r = client.VarRead("zc");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(big));
}

TEST_F(ServerTest, GrpcVarAssignKeepsItsSerializeAndCopyCosts) {
  auto client = Client("t01n01:8888", WireProtocol::kGrpc);
  const int64_t n = 1 << 16;
  Tensor big(DType::kF32, Shape{n});
  router_.ResetStats();
  ASSERT_TRUE(client.VarAssign("gc", big).ok());
  const TransportStats& st = router_.stats(WireProtocol::kGrpc);
  // gRPC cannot exploit views: full envelope serialization + the wire copy,
  // both at least payload-sized (Fig. 7's costly end of the ordering).
  EXPECT_GE(st.bytes_serialized.load(), big.bytes());
  EXPECT_GE(st.bytes_copied.load(), big.bytes());
  EXPECT_EQ(st.views_forwarded.load(), 0);
}

// A TensorProto's dims come off the wire. Dims whose product overflows, or
// whose byte size the content cannot fill, must be an InvalidArgument reply
// rather than an abort or a petabyte allocation in the ps task. The split
// VarWrite payload crosses gRPC flattened (ParseTensor reads it) and MPI
// as a view (ParseTensorView reads it).
TEST_F(ServerTest, MalformedTensorDimsAreInvalidArgument) {
  const uint64_t kShapes[][2] = {{uint64_t{1} << 40, uint64_t{1} << 40},
                                 {uint64_t{1} << 24, uint64_t{1} << 24}};
  for (WireProtocol p : {WireProtocol::kGrpc, WireProtocol::kMpi}) {
    for (const auto& dims : kShapes) {
      std::string proto;
      wire::CodedOutput po(&proto);
      po.WriteUInt64(1, static_cast<uint64_t>(DType::kF32));
      po.WriteUInt64(2, dims[0]);
      po.WriteUInt64(2, dims[1]);
      po.WriteTag(3, wire::WireType::kLengthDelimited);
      po.WriteVarint(4);
      std::string head;
      wire::CodedOutput ho(&head);
      ho.WriteString(1, "bad_dims");
      ho.WriteTag(2, wire::WireType::kLengthDelimited);
      ho.WriteVarint(proto.size() + 4);
      head += proto;
      auto content = Buffer::Allocate(4);
      wire::RpcEnvelope req;
      req.method = "VarWrite";
      req.client_id = 77;
      req.request_id = dims[0] + static_cast<uint64_t>(p);
      req.payload = wire::PayloadRef::View(head, content, 0, 4);
      req.checksum = wire::PayloadChecksum(req.payload);
      auto resp = router_.Call("t01n01:8888", p, req);
      ASSERT_TRUE(resp.ok()) << WireProtocolName(p);
      EXPECT_EQ(resp->status_code, static_cast<int32_t>(Code::kInvalidArgument))
          << WireProtocolName(p) << " dims " << dims[0] << ": "
          << resp->status_msg;
    }
    auto client = Client("t01n01:8888", p);
    ASSERT_TRUE(client.VarAssign("after_bad_dims", Tensor::Scalar(2.5)).ok())
        << WireProtocolName(p) << ": the ps task must keep serving";
    EXPECT_DOUBLE_EQ(client.VarRead("after_bad_dims")->scalar<double>(), 2.5);
  }
}

// Pooled staging keeps the gRPC frame and wire-copy blocks mapped between
// pushes, so warm 16 MiB pushes fault in almost none of the pages they move.
// The first two pushes populate the pool: the variable's first value and
// the first sum each take a fresh block.
TEST_F(ServerTest, WarmGrpcPushesDoNotFaultInStagingPages) {
  auto client = Client("t01n01:8888", WireProtocol::kGrpc);
  Tensor update(DType::kF32, Shape{int64_t{4} << 20});  // 16 MiB
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.VarAssignAdd("warm", update).ok());
  }
  constexpr int kPushes = 8;
  const int64_t pages = kPushes * update.bytes() / 4096;
  rusage before{}, after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  for (int i = 0; i < kPushes; ++i) {
    ASSERT_TRUE(client.VarAssignAdd("warm", update).ok());
  }
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const int64_t faults = after.ru_minflt - before.ru_minflt;
  EXPECT_LT(faults, pages / 16) << faults << " minor faults over " << pages
                                << " pushed pages";
}

TEST_F(ServerTest, ReadMissingVariableFails) {
  auto r = Client("t01n01:8888").VarRead("ghost");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kFailedPrecondition);
}

TEST_F(ServerTest, RemoteQueueRoundTrip) {
  auto w0 = Client("t01n02:8888");
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2});
  ASSERT_TRUE(w0.Enqueue("inbox", t).ok());
  auto r = w0.Dequeue("inbox");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->BitwiseEquals(t));
}

TEST_F(ServerTest, QueueBlocksAcrossClients) {
  // Reducer pattern (Fig. 5): a consumer blocks on the PS queue until a
  // producer on another "task" pushes.
  std::thread producer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto c = Client("t01n01:8888");
    ASSERT_TRUE(c.Enqueue("reduce_in", Tensor::Scalar(2.5)).ok());
  });
  auto consumer = Client("t01n01:8888");
  auto r = consumer.Dequeue("reduce_in");
  producer.join();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar<double>(), 2.5);
}

TEST_F(ServerTest, CloseQueueUnblocksDequeue) {
  std::thread closer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(Client("t01n01:8888").CloseQueue("doomed").ok());
  });
  auto r = Client("t01n01:8888").Dequeue("doomed");
  closer.join();
  EXPECT_EQ(r.status().code(), Code::kOutOfRange);
}

TEST_F(ServerTest, ClosedQueueDrainsThenOutOfRange) {
  // TF's closed-queue contract: pending elements drain, then kOutOfRange.
  auto c = Client("t01n01:8888");
  ASSERT_TRUE(c.Enqueue("drainq", Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(c.Enqueue("drainq", Tensor::Scalar(2.0)).ok());
  ASSERT_TRUE(c.CloseQueue("drainq").ok());
  EXPECT_DOUBLE_EQ(c.Dequeue("drainq")->scalar<double>(), 1.0);
  EXPECT_DOUBLE_EQ(c.Dequeue("drainq")->scalar<double>(), 2.0);
  EXPECT_EQ(c.Dequeue("drainq").status().code(), Code::kOutOfRange);
  // And it stays that way.
  EXPECT_EQ(c.Dequeue("drainq").status().code(), Code::kOutOfRange);
}

TEST_F(ServerTest, EnqueueAfterCloseFailsCleanly) {
  auto c = Client("t01n01:8888");
  ASSERT_TRUE(c.Enqueue("closedq", Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(c.CloseQueue("closedq").ok());
  auto st = c.Enqueue("closedq", Tensor::Scalar(2.0));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kCancelled);
  // The element enqueued before the close is still drainable.
  EXPECT_DOUBLE_EQ(c.Dequeue("closedq")->scalar<double>(), 1.0);
}

TEST_F(ServerTest, ConcurrentCloseVsDequeueNeverHangs) {
  // Many consumers parked on an empty queue race a close: every dequeue
  // must return (value or kOutOfRange), and nothing may hang. Repeated to
  // shake out interleavings.
  for (int round = 0; round < 5; ++round) {
    const std::string q = "race_" + std::to_string(round);
    constexpr int kConsumers = 4;
    std::vector<std::thread> consumers;
    std::vector<Status> results(kConsumers);
    for (int i = 0; i < kConsumers; ++i) {
      consumers.emplace_back([this, &results, i, q] {
        results[i] = Client("t01n01:8888").Dequeue(q).status();
      });
    }
    // One element for at most one consumer; then close under contention.
    ASSERT_TRUE(Client("t01n01:8888").Enqueue(q, Tensor::Scalar(1.0)).ok());
    ASSERT_TRUE(Client("t01n01:8888").CloseQueue(q).ok());
    for (auto& t : consumers) t.join();
    int got_value = 0;
    for (const Status& st : results) {
      if (st.ok()) {
        ++got_value;
      } else {
        EXPECT_EQ(st.code(), Code::kOutOfRange) << st.ToString();
      }
    }
    EXPECT_LE(got_value, 1);
  }
}

TEST_F(ServerTest, ResetStatsZeroesAllProtocols) {
  ASSERT_TRUE(Client("t01n01:8888", WireProtocol::kGrpc).Ping().ok());
  ASSERT_TRUE(Client("t01n01:8888", WireProtocol::kMpi).Ping().ok());
  EXPECT_GT(router_.stats(WireProtocol::kGrpc).calls.load(), 0);
  router_.ResetStats();
  for (WireProtocol p :
       {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
    EXPECT_EQ(router_.stats(p).calls.load(), 0) << WireProtocolName(p);
    EXPECT_EQ(router_.stats(p).payload_bytes.load(), 0);
    EXPECT_EQ(router_.stats(p).bytes_copied.load(), 0);
    EXPECT_EQ(router_.stats(p).bytes_serialized.load(), 0);
    EXPECT_EQ(router_.stats(p).total_faults(), 0);
  }
  // Stats keep counting after a reset (per-phase measurement).
  ASSERT_TRUE(Client("t01n01:8888", WireProtocol::kRdma).Ping().ok());
  EXPECT_EQ(router_.stats(WireProtocol::kRdma).calls.load(), 1);
}

TEST_F(ServerTest, ExtendGraphAndRunStep) {
  // Client builds a graph locally, ships it to worker 0, runs a step with a
  // feed — the TF client/worker split.
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{2}, "x");
  auto two = ops::Const(s, Tensor::Scalar(2.0));
  auto y = ops::Mul(s, x, two);

  auto client = Client("t01n02:8888");
  ASSERT_TRUE(client.ExtendGraph(g.ToGraphDef()).ok());
  auto handle = client.RegisterStep({"x"}, {y.name()});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto r = client.RunRegisteredStep(
      *handle, {{"x", Tensor::FromVector(std::vector<double>{3, 4})}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 8.0);
}

TEST_F(ServerTest, RunStepRefusesSimulate) {
  // The runtime has one execution mode: a step that asks to be simulated
  // is refused before anything runs, so the variable stays unwritten.
  Graph g;
  Scope s(&g);
  auto v = ops::Variable(s, "v", DType::kF64, Shape{2});
  auto init = ops::Assign(
      s, v, ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2})));
  auto client = Client("t01n02:8888");
  ASSERT_TRUE(client.ExtendGraph(g.ToGraphDef()).ok());
  auto handle = client.RegisterStep({}, {init.name()});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto r = client.RunRegisteredStep(*handle, {}, /*simulate=*/true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
  EXPECT_FALSE(w0_->resources().LookupOrCreateVariable("v")->initialized());
  auto ok = client.RunRegisteredStep(*handle, {});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_DOUBLE_EQ((*ok)[0].data<double>()[1], 2.0);
}

TEST_F(ServerTest, RunStepErrorsPropagateWithAddress) {
  // A bad fetch fails when the step is registered, before anything runs.
  auto client = Client("t01n02:8888");
  auto r = client.RegisterStep({}, {"no_such_node"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
  EXPECT_NE(r.status().message().find("t01n02:8888"), std::string::npos);
}

TEST_F(ServerTest, ExtendGraphEnforcesProtobufLimit) {
  // The paper's §IV 2 GB GraphDef ceiling, shrunk for testability.
  auto spec = ClusterSpec::Create(TwoTaskCluster()).value();
  InProcessRouter router;
  ServerDef sd{spec, "ps", 0, 0};
  sd.max_graphdef_bytes = 128;  // tiny limit
  auto server = Server::Create(sd, &router).value();
  RemoteTask client(&router, "t01n01:8888", WireProtocol::kRdma);

  // A graph with a fat constant exceeds the limit...
  Graph big;
  Scope s(&big);
  ops::Const(s, Tensor(DType::kF64, Shape{64}), "fat");
  auto st = client.ExtendGraph(big.ToGraphDef());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
  EXPECT_NE(st.message().find("loop body"), std::string::npos);

  // ...while the paper's workaround (state in variables, tiny loop body)
  // fits: declare the variable, feed the fat data at Run time.
  Graph small;
  Scope s2(&small);
  auto v = ops::Variable(s2, "state", DType::kF64, Shape{64});
  (void)v;
  EXPECT_TRUE(client.ExtendGraph(small.ToGraphDef()).ok());
}

TEST_F(ServerTest, ExtendGraphRejectsBadDefs) {
  auto client = Client("t01n02:8888");
  wire::GraphDef def;
  wire::NodeDef n;
  n.name = "orphan_add";
  n.op = "Add";
  n.inputs = {"missing1", "missing2"};
  def.nodes.push_back(n);
  EXPECT_FALSE(client.ExtendGraph(def).ok());
}

TEST_F(ServerTest, WorkerGraphsAreIsolated) {
  Graph g;
  Scope s(&g);
  ops::Const(s, Tensor::Scalar(1.0), "only_on_w0");
  auto w0 = Client("t01n02:8888");
  ASSERT_TRUE(w0.ExtendGraph(g.ToGraphDef()).ok());
  auto handle = w0.RegisterStep({}, {"only_on_w0"});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(w0.RunRegisteredStep(*handle, {}).ok());
  EXPECT_FALSE(Client("t01n03:8888").RegisterStep({}, {"only_on_w0"}).ok());
}

TEST_F(ServerTest, RunStepWithoutHandleIsRefusedAndRunsNothing) {
  // A raw RunStep whose payload names a fetch (field 2) but carries no step
  // handle: steps run only by handle, so the worker refuses it untouched.
  Graph g;
  Scope s(&g);
  ops::Const(s, Tensor::Scalar(1.0), "k");
  ASSERT_TRUE(Client("t01n02:8888").ExtendGraph(g.ToGraphDef()).ok());

  std::string payload;
  wire::CodedOutput co(&payload);
  co.WriteString(2, "k");
  wire::RpcEnvelope req;
  req.method = "RunStep";
  req.payload = wire::PayloadRef(std::move(payload));
  const int64_t executed = w0_->nodes_executed();
  auto resp = router_.Call("t01n02:8888", WireProtocol::kRdma, req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(static_cast<Code>(resp->status_code), Code::kInvalidArgument)
      << resp->status_msg;
  EXPECT_EQ(w0_->nodes_executed(), executed);
}

TEST_F(ServerTest, ServerSessionSharesResourcesWithService) {
  // A graph-level variable written through a local server session must be
  // visible to remote VarRead — one ResourceMgr per task.
  Scope s(&w0_->graph());
  auto v = ops::Variable(s, "wvar", DType::kF64, Shape{});
  auto init = ops::Assign(s, v, ops::Const(s, Tensor::Scalar(11.0)));
  ASSERT_TRUE(w0_->NewSession()->Run({}, {init.name()}).ok());
  auto r = Client("t01n02:8888").VarRead("wvar");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar<double>(), 11.0);
}

TEST_F(ServerTest, EndToEndParameterServerPattern) {
  // Two workers each compute a partial sum on their own graph and push it to
  // the PS variable; the driver reads the total — the paper's data-parallel
  // skeleton, exercised over all three protocols.
  for (WireProtocol proto :
       {WireProtocol::kGrpc, WireProtocol::kMpi, WireProtocol::kRdma}) {
    const std::string var = std::string("total_") + WireProtocolName(proto);
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back([this, w, proto, var] {
        auto ps = RemoteTask(&router_, "t01n01:8888", proto);
        Tensor partial = Tensor::Scalar(static_cast<double>((w + 1) * 10));
        ASSERT_TRUE(ps.VarAssignAdd(var, partial).ok());
      });
    }
    for (auto& t : workers) t.join();
    auto total = Client("t01n01:8888").VarRead(var);
    ASSERT_TRUE(total.ok());
    EXPECT_DOUBLE_EQ(total->scalar<double>(), 30.0);
  }
}

// ---- Resolver-to-cluster integration ------------------------------------------------

TEST(ResolverIntegrationTest, ResolverSpecBootsServers) {
  cluster::SlurmClusterResolver resolver({{"ps", 1}, {"worker", 2}},
                                         "t02n[01-03]", 1, 1);
  auto def = resolver.ClusterSpec();
  ASSERT_TRUE(def.ok());
  auto spec = ClusterSpec::Create(*def);
  ASSERT_TRUE(spec.ok());
  InProcessRouter router;
  std::vector<std::unique_ptr<Server>> servers;
  for (const std::string& job : spec->JobNames()) {
    for (int t = 0; t < spec->NumTasks(job); ++t) {
      ServerDef sd{*spec, job, t, 1};
      auto server = Server::Create(sd, &router);
      ASSERT_TRUE(server.ok());
      servers.push_back(std::move(*server));
    }
  }
  EXPECT_TRUE(
      RemoteTask(&router, "t02n02:8888", WireProtocol::kRdma).Ping().ok());
  EXPECT_TRUE(
      RemoteTask(&router, "t02n03:8888", WireProtocol::kGrpc).Ping().ok());
}

}  // namespace
}  // namespace tfhpc::distrib
