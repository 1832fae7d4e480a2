// Hardening tests: adversarial bytes against every wire-format parser (the
// surface remote peers control), executor stress under wide fan-out and
// deep chains, and concurrent-session pressure on shared resources.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <thread>

#include "distrib/server.h"
#include "graph/ops.h"
#include "io/checkpoint.h"
#include "runtime/session.h"
#include "wire/messages.h"

namespace tfhpc {
namespace {

// ---- Parser fuzz: random bytes must error, never crash or hang ------------------

std::string RandomBytes(std::mt19937_64& rng, size_t max_len) {
  std::uniform_int_distribution<size_t> len(0, max_len);
  std::uniform_int_distribution<int> byte(0, 255);
  std::string s(len(rng), '\0');
  for (char& c : s) c = static_cast<char>(byte(rng));
  return s;
}

// Feeds `bytes` to RpcEnvelope::Parse twice: inline, and as a frame that
// ends exactly where its pooled block ends, the way the transports hand
// frames over. A parse that succeeds must yield a payload inside the frame:
// hashing every payload byte turns an out-of-frame view into a test
// failure, or an ASan report past the block's end.
void ParseEnvelopeBothWays(const std::string& bytes) {
  const auto inline_r = wire::RpcEnvelope::Parse(bytes);
  size_t block = BufferPool::kMinClassBytes;
  while (block < bytes.size()) block <<= 1;
  auto buffer = Buffer::Allocate(block, nullptr, ZeroInit::kNo);
  const size_t at = block - bytes.size();
  if (!bytes.empty()) {
    std::memcpy(static_cast<char*>(buffer->data()) + at, bytes.data(),
                bytes.size());
  }
  const auto framed_r =
      wire::RpcEnvelope::Parse(wire::PayloadRef::View("", buffer, at,
                                                      bytes.size()));
  ASSERT_EQ(inline_r.ok(), framed_r.ok());
  if (!framed_r.ok()) return;
  const wire::PayloadRef& p = framed_r->payload;
  ASSERT_LE(p.size(), bytes.size());
  if (p.is_view()) {
    ASSERT_EQ(p.buffer(), buffer);
    ASSERT_GE(p.view_offset(), at);
    ASSERT_LE(p.view_offset() + p.view_size(), block);
  }
  EXPECT_EQ(wire::PayloadChecksum(p),
            wire::PayloadChecksum(inline_r->payload));
}

class WireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzzTest, AllParsersSurviveGarbage) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 2654435761u);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string bytes = RandomBytes(rng, 256);
    (void)wire::ParseTensor(bytes);
    (void)wire::GraphDef::Parse(bytes);
    (void)wire::ClusterDef::Parse(bytes);
    ParseEnvelopeBothWays(bytes);
    (void)wire::AttrValue::Parse(bytes.data(), bytes.size());
    (void)wire::NodeDef::Parse(bytes.data(), bytes.size());
  }
  SUCCEED();
}

TEST_P(WireFuzzTest, EnvelopeTruncationsAndMutationsSurvive) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  wire::RpcEnvelope e;
  e.method = "VarWrite";
  e.request_id = 42;
  e.payload = RandomBytes(rng, 300);
  e.status_msg = "trailing fields";
  e.client_id = 9;
  e.checksum = wire::PayloadChecksum(e.payload);
  const std::string good = e.Serialize().Flatten();
  for (size_t len = 0; len <= good.size(); ++len) {
    ParseEnvelopeBothWays(good.substr(0, len));
  }
  std::uniform_int_distribution<size_t> pos(0, good.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = good;
    bad[pos(rng)] = static_cast<char>(byte(rng));
    ParseEnvelopeBothWays(bad);
  }
}

TEST_P(WireFuzzTest, TruncationsOfValidMessagesSurvive) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 40503 + 1);
  // Build a realistic GraphDef and attack every prefix/mutation of it.
  Graph g;
  Scope s(&g);
  auto a = ops::RandomUniform(s, Shape{4, 4}, DType::kF32, 7);
  auto b = ops::MatMul(s, a, a);
  (void)b;
  const std::string good = g.ToGraphDef().Serialize();
  for (size_t len = 0; len < good.size(); len += 3) {
    (void)wire::GraphDef::Parse(good.substr(0, len));
  }
  std::uniform_int_distribution<size_t> pos(0, good.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = good;
    bad[pos(rng)] = static_cast<char>(byte(rng));
    auto r = wire::GraphDef::Parse(bad);
    if (r.ok()) {
      // A parse that survives must still produce a structurally valid graph
      // or be rejected when rebuilt.
      (void)Graph::FromGraphDef(*r);
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(1, 5));

TEST(CheckpointFuzzTest, CorruptedCheckpointsRejectedCleanly) {
  const std::string path = "/tmp/tfhpc_fuzz_ckpt";
  std::map<std::string, Tensor> vars{{"w", Tensor(DType::kF64, Shape{16})}};
  ASSERT_TRUE(io::SaveCheckpoint(path, vars).ok());
  std::ifstream f(path, std::ios::binary);
  std::string good((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<size_t> pos(0, good.size() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    bad[pos(rng)] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    out.close();
    (void)io::LoadCheckpoint(path);  // error or value; never crash
  }
  std::remove(path.c_str());
  SUCCEED();
}

// ---- Executor stress ---------------------------------------------------------------

TEST(ExecutorStressTest, WideFanOutAcrossManyDevices) {
  // 64 independent matmuls spread over 8 simulated GPUs in one step.
  LocalRuntime rt(8);
  Scope s = rt.root_scope();
  std::vector<std::string> fetches;
  for (int i = 0; i < 64; ++i) {
    auto dev = s.WithDevice("/gpu:" + std::to_string(i % 8));
    auto a = ops::RandomUniform(dev, Shape{16, 16}, DType::kF32,
                                static_cast<int64_t>(i));
    auto c = ops::MatMul(dev, a, a);
    fetches.push_back(c.name());
  }
  auto r = rt.NewSession()->Run({}, fetches);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 64u);
  for (const auto& t : *r) EXPECT_EQ(t.shape(), Shape({16, 16}));
}

TEST(ExecutorStressTest, DeepSerialChain) {
  // A 500-deep dependency chain must execute in order without stack or
  // scheduling pathologies.
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  Output v = ops::Const(s, Tensor::Scalar(1.0));
  auto half = ops::Const(s, Tensor::Scalar(0.5));
  for (int i = 0; i < 500; ++i) v = ops::Mul(s, v, half);
  auto r = rt.NewSession()->Run({}, {v.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR((*r)[0].scalar<double>(), std::pow(0.5, 500), 1e-300);
}

TEST(ExecutorStressTest, ConcurrentSessionsShareVariablesSafely) {
  // Many threads hammer AssignAdd on one variable through separate
  // sessions; the final count must be exact (Variable locking).
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto v = ops::Variable(s, "counter", DType::kF64, Shape{});
  auto init = ops::Assign(s, v, ops::Const(s, Tensor::Scalar(0.0)));
  auto bump = ops::AssignAdd(s, v, ops::Const(s, Tensor::Scalar(1.0)));
  ASSERT_TRUE(rt.NewSession()->Run({}, {init.name()}).ok());

  constexpr int kThreads = 4;
  constexpr int kStepsEach = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = rt.NewSession();
      for (int i = 0; i < kStepsEach; ++i) {
        if (!session->Run({}, {}, {bump.node->name()}).ok()) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto r = rt.NewSession()->Run({}, {v.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), kThreads * kStepsEach);
}

TEST(ExecutorStressTest, ManyProducersOneQueue) {
  // 32 enqueues and 32 dequeues race within one step; the multiset of
  // dequeued values must equal the enqueued one.
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  std::vector<std::string> targets;
  std::vector<std::string> fetches;
  for (int i = 0; i < 32; ++i) {
    auto c = ops::Const(s, Tensor::Scalar(static_cast<double>(i)));
    targets.push_back(ops::QueueEnqueue(s, "stress", c).node->name());
    fetches.push_back(ops::QueueDequeue(s, "stress").name());
  }
  auto r = rt.NewSession()->Run({}, fetches, targets);
  ASSERT_TRUE(r.ok());
  std::multiset<double> got;
  for (const auto& t : *r) got.insert(t.scalar<double>());
  std::multiset<double> want;
  for (int i = 0; i < 32; ++i) want.insert(static_cast<double>(i));
  EXPECT_EQ(got, want);
}

// ---- Remote surface under garbage ------------------------------------------------

TEST(ServerFuzzTest, MalformedPayloadsErrorCleanly) {
  wire::ClusterDef def;
  wire::JobDef job;
  job.name = "w";
  job.task_addrs = {"fz:1"};
  def.jobs = {job};
  auto spec = distrib::ClusterSpec::Create(def).value();
  distrib::InProcessRouter router;
  auto server = distrib::Server::Create({spec, "w", 0, 0}, &router).value();

  const char* methods[] = {"ExtendGraph", "RunStep",  "Enqueue",
                           "Dequeue",     "VarWrite", "VarRead",
                           "RendezvousSend"};
  // Each protocol delivers the garbage its own way: a sub-view of the gRPC
  // frame, MPI's and RDMA's staged blocks.
  for (distrib::WireProtocol proto :
       {distrib::WireProtocol::kGrpc, distrib::WireProtocol::kMpi,
        distrib::WireProtocol::kRdma}) {
    std::mt19937_64 rng(3);
    for (int trial = 0; trial < 200; ++trial) {
      wire::RpcEnvelope req;
      req.method = methods[trial % 7];
      req.payload = RandomBytes(rng, 128);
      // Dequeue with a garbage payload could block on a real queue name; the
      // decode rejects unparseable payloads, and parseable ones name a queue
      // that never fills — skip the genuinely blocking method on payloads
      // that decode successfully.
      if (req.method == "Dequeue") {
        std::string q;
        Tensor t;
        int64_t cap;
        if (distrib::DecodeQueuePayloadView(req.payload, &q, &t, &cap).ok()) {
          continue;
        }
      }
      auto resp = router.Call("fz:1", proto, req);
      ASSERT_TRUE(resp.ok());  // transport-level ok
      // Service must report a structured error, not crash.
      EXPECT_NE(resp->status_code, 0)
          << req.method << " over " << distrib::WireProtocolName(proto);
    }
  }
}

}  // namespace
}  // namespace tfhpc
