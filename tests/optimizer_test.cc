// Optimizer pipeline tests: per-pass positive/negative units, run-twice
// fixed point, fused-kernel numerics bit-identical to the unfused chain,
// and stateful-op safety.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "graph/ops.h"
#include "optimizer/optimizer.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

const wire::NodeDef* FindDef(const wire::GraphDef& def,
                             const std::string& name) {
  for (const auto& nd : def.nodes) {
    if (nd.name == name) return &nd;
  }
  return nullptr;
}

int CountOp(const wire::GraphDef& def, const std::string& op) {
  int n = 0;
  for (const auto& nd : def.nodes) n += nd.op == op;
  return n;
}

bool SameGraph(const wire::GraphDef& a, const wire::GraphDef& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    if (!(a.nodes[i] == b.nodes[i])) return false;
  }
  return true;
}

// ---- const folding ---------------------------------------------------------------

TEST(OptimizerPipelineTest, ConstFoldCollapsesConstSubgraph) {
  Graph g;
  Scope s(&g);
  auto c1 = ops::Const(s, Tensor::Scalar(2.0), "c1");
  auto c2 = ops::Const(s, Tensor::Scalar(3.0), "c2");
  auto sum = ops::Add(s, c1, c2);
  auto x = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto prod = ops::Mul(s, x, sum);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.feeds = {"x"};
  opts.fetches = {prod.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const wire::NodeDef* folded = FindDef(r->graph, sum.node->name());
  // The const-only Add either folded in place or was swept by DNE after its
  // consumer was rewired; whichever way, no Add-of-consts remains.
  if (folded != nullptr) {
    EXPECT_EQ(folded->op, "Const");
  }
  ASSERT_FALSE(r->passes.empty());
  EXPECT_EQ(r->passes[0].name, "const_fold");
  EXPECT_GT(r->passes[0].changed, 0);
}

TEST(OptimizerPipelineTest, FedNodesNeverFold) {
  Graph g;
  Scope s(&g);
  auto c = ops::Const(s, Tensor::Scalar(2.0), "c");
  auto d = ops::Const(s, Tensor::Scalar(3.0), "d");
  auto out = ops::Add(s, c, d);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.feeds = {"c"};  // fed at run time: its static value is a lie
  opts.fetches = {out.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const wire::NodeDef* add = FindDef(r->graph, out.node->name());
  ASSERT_NE(add, nullptr);
  EXPECT_EQ(add->op, "Add") << "an Add over a fed input must not fold";
}

// ---- CSE -------------------------------------------------------------------------

TEST(OptimizerPipelineTest, CseMergesDuplicates) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{4}, "x");
  auto c = ops::Const(s, Tensor::Scalar(2.0), "c");
  auto a = ops::Mul(s, x, c);
  auto b = ops::Mul(s, x, c);  // structurally identical to a
  auto out = ops::Add(s, a, b);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.feeds = {"x"};
  opts.fetches = {out.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const wire::NodeDef* sum = FindDef(r->graph, out.node->name());
  ASSERT_NE(sum, nullptr);
  ASSERT_EQ(sum->inputs.size(), 2u);
  EXPECT_EQ(sum->inputs[0], sum->inputs[1])
      << "both inputs must point at the surviving duplicate";
  EXPECT_EQ(FindDef(r->graph, a.node->name()) != nullptr,
            FindDef(r->graph, b.node->name()) == nullptr)
      << "exactly one of the two duplicates survives";
}

TEST(OptimizerPipelineTest, CseKeepsFetchedDuplicates) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{4}, "x");
  auto c = ops::Const(s, Tensor::Scalar(2.0), "c");
  auto a = ops::Mul(s, x, c);
  auto b = ops::Mul(s, x, c);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.feeds = {"x"};
  opts.fetches = {a.node->name(), b.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(FindDef(r->graph, a.node->name()), nullptr);
  EXPECT_NE(FindDef(r->graph, b.node->name()), nullptr)
      << "a fetched node must never be merged away";
}

// ---- dead-node elimination -------------------------------------------------------

TEST(OptimizerPipelineTest, DeadNodeElimPrunesToClosure) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto live = ops::Mul(s, x, ops::Const(s, Tensor::Scalar(2.0)));
  auto dead = ops::Add(s, x, ops::Const(s, Tensor::Scalar(5.0)));

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.feeds = {"x"};
  opts.fetches = {live.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(FindDef(r->graph, live.node->name()), nullptr);
  EXPECT_EQ(FindDef(r->graph, dead.node->name()), nullptr)
      << "nodes outside the fetch closure must be pruned";
}

TEST(OptimizerPipelineTest, WholeGraphModeKeepsStatefulOps) {
  Graph g;
  Scope s(&g);
  auto v = ops::Variable(s, "v", DType::kF64, Shape{});
  ops::AssignAdd(s, v, ops::Const(s, Tensor::Scalar(1.0)));
  ops::QueueEnqueue(s, "q", ops::Const(s, Tensor::Scalar(7.0)));

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kAggressive;
  // No signature: whole-graph mode (the graphcheck CLI / DistributedSession
  // view). Stateful ops must all survive.
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CountOp(r->graph, "Variable"), 1);
  EXPECT_EQ(CountOp(r->graph, "AssignAdd"), 1);
  EXPECT_EQ(CountOp(r->graph, "QueueEnqueue"), 1);
}

// ---- idempotence -----------------------------------------------------------------

TEST(OptimizerPipelineTest, PipelineIsIdempotent) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{8}, "x");
  auto c2 = ops::Const(s, Tensor::Scalar(2.0), "c2");
  auto c3 = ops::Const(s, Tensor::Scalar(3.0), "c3");
  auto a = ops::Add(s, x, c2);
  auto b = ops::Mul(s, a, c3);
  auto d = ops::Sub(s, b, c2);
  auto e = ops::Neg(s, d);
  // A duplicate pair and a const subgraph so every pass has work to do.
  auto dup1 = ops::Mul(s, x, c2);
  auto dup2 = ops::Mul(s, x, c2);
  auto cc = ops::Add(s, c2, c3);
  auto tail = ops::Add(s, ops::Add(s, dup1, dup2), ops::Mul(s, e, cc));

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kAggressive;
  opts.feeds = {"x"};
  opts.fetches = {tail.node->name()};
  auto once = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  auto twice = optimizer::RunPassPipeline(once->graph, opts);
  ASSERT_TRUE(twice.ok()) << twice.status().ToString();
  EXPECT_TRUE(SameGraph(once->graph, twice->graph))
      << "the pipeline must reach a fixed point after one run";
}

// ---- fusion + fused-kernel numerics ----------------------------------------------

TEST(FusedElementwiseTest, AggressiveFusionMatchesUnfusedBitExact) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{64}, "x");
  auto c1 = ops::Const(s, Tensor::Scalar(1.5), "c1");
  auto c2 = ops::Const(s, Tensor::Scalar(0.25), "c2");
  auto a = ops::Add(s, x, c1);
  auto b = ops::Mul(s, a, c2);
  auto c = ops::Sub(s, b, c1);
  auto d = ops::Mul(s, c, c);  // square: makes the sqrt input non-negative
  auto e = ops::Sqrt(s, d);
  auto out = ops::Neg(s, e);

  std::vector<double> vals(64);
  for (int i = 0; i < 64; ++i) vals[i] = (i - 32) * 0.37;
  const Tensor feed = Tensor::FromVector(vals);

  SessionOptions off;
  off.optimizer_level = optimizer::OptimizerLevel::kOff;
  auto plain = rt.NewSession(off);
  auto r_off = plain->Run({{"x", feed}}, {out.name()});
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

  SessionOptions aggressive;
  aggressive.optimizer_level = optimizer::OptimizerLevel::kAggressive;
  aggressive.graph_check = GraphCheckMode::kStrict;
  auto opt = rt.NewSession(aggressive);
  RunOptions trace;
  trace.trace = true;
  RunMetadata meta;
  auto r_on = opt->Run({{"x", feed}}, {out.name()}, {}, trace, &meta);
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();

  ASSERT_EQ((*r_off)[0].num_elements(), (*r_on)[0].num_elements());
  EXPECT_EQ(std::memcmp((*r_off)[0].data<double>().data(),
                        (*r_on)[0].data<double>().data(),
                        64 * sizeof(double)),
            0)
      << "fused chain must be bit-identical to the unfused kernels";

  bool fused_ran = false;
  size_t traced_nodes = meta.nodes.size();
  for (const auto& n : meta.nodes) fused_ran |= n.op == "FusedElementwise";
  EXPECT_TRUE(fused_ran) << "aggressive level must execute a fused chain";
  EXPECT_LT(traced_nodes, 9u) << "the fused step must schedule fewer nodes";
}

TEST(FusedElementwiseTest, CastChainMatchesUnfused) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF32, Shape{16}, "x");
  auto wide = ops::Cast(s, x, DType::kF64);
  auto shifted = ops::Add(s, wide, ops::Const(s, Tensor::Scalar(0.125)));
  auto out = ops::Cast(s, shifted, DType::kF32);

  std::vector<float> vals(16);
  for (int i = 0; i < 16; ++i) vals[i] = static_cast<float>(i) * 1.3f;
  const Tensor feed = Tensor::FromVector(vals);

  SessionOptions off;
  auto plain = rt.NewSession(off);
  auto r_off = plain->Run({{"x", feed}}, {out.name()});
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

  SessionOptions aggressive;
  aggressive.optimizer_level = optimizer::OptimizerLevel::kAggressive;
  aggressive.graph_check = GraphCheckMode::kStrict;
  auto opt = rt.NewSession(aggressive);
  auto r_on = opt->Run({{"x", feed}}, {out.name()});
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  EXPECT_EQ(std::memcmp((*r_off)[0].data<float>().data(),
                        (*r_on)[0].data<float>().data(),
                        16 * sizeof(float)),
            0);
}

TEST(FusedElementwiseTest, FetchedInteriorNodeIsNeverAbsorbed) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{8}, "x");
  auto c = ops::Const(s, Tensor::Scalar(2.0), "c");
  auto mid = ops::Add(s, x, c);
  auto out = ops::Mul(s, mid, c);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kAggressive;
  opts.feeds = {"x"};
  opts.fetches = {mid.node->name(), out.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const wire::NodeDef* kept = FindDef(r->graph, mid.node->name());
  ASSERT_NE(kept, nullptr) << "fetched interior node must survive by name";
  EXPECT_EQ(kept->op, "Add");
}

TEST(FusedElementwiseTest, StatefulOpsNeverFuse) {
  Graph g;
  Scope s(&g);
  auto v = ops::Variable(s, "v", DType::kF64, Shape{4});
  auto bump = ops::AssignAdd(
      s, v, ops::Const(s, Tensor::FromVector(std::vector<double>{1, 1, 1, 1})));
  auto a = ops::Add(s, v, ops::Const(s, Tensor::Scalar(2.0)));
  auto b = ops::Mul(s, a, ops::Const(s, Tensor::Scalar(3.0)));
  auto out = ops::Sub(s, b, ops::Const(s, Tensor::Scalar(1.0)));

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kAggressive;
  opts.fetches = {out.node->name()};
  opts.targets = {bump.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The stateful producer and its mutation survive as standalone nodes; only
  // the pure suffix collapses. The Variable MAY feed the fused chain as an
  // external operand — it must never be a chain member.
  EXPECT_EQ(CountOp(r->graph, "AssignAdd"), 1);
  EXPECT_EQ(CountOp(r->graph, "Variable"), 1);
  EXPECT_EQ(CountOp(r->graph, "FusedElementwise"), 1);
  const wire::NodeDef* var = FindDef(r->graph, v.node->name());
  ASSERT_NE(var, nullptr);
  EXPECT_EQ(var->op, "Variable");
}

TEST(FusedElementwiseTest, FetchedChainOverPlannedInputMatchesUnfused) {
  // The fused chain reads x, an arena-planned MatMul output, and its own
  // output f is fetched. f must come from the pool: the arena range x
  // occupied is reused by the planned t = f·f, and the fetch outlives the
  // step and the runtime.
  for (const int64_t n : {4, 16, 64}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<Tensor> unfused;
    std::vector<Tensor> fused;
    {
      LocalRuntime rt(0);
      Scope s = rt.root_scope();
      auto a = ops::Placeholder(s, DType::kF64, Shape{n, n}, "a");
      auto b = ops::Placeholder(s, DType::kF64, Shape{n, n}, "b");
      auto c = ops::Const(s, Tensor::Scalar(0.75), "c");
      auto x = ops::MatMul(s, a, b);
      auto f = ops::Add(s, ops::Mul(s, x, c), c);
      auto t = ops::MatMul(s, f, f);
      auto r = ops::ReduceSum(s, t);

      std::vector<double> av(static_cast<size_t>(n * n));
      std::vector<double> bv(av.size());
      for (size_t i = 0; i < av.size(); ++i) {
        av[i] = 0.01 * static_cast<double>(i % 17) - 0.05;
        bv[i] = 0.02 * static_cast<double>(i % 13) + 0.125;
      }
      const std::map<std::string, Tensor> feeds = {
          {"a", Tensor::FromVector(Shape{n, n}, av)},
          {"b", Tensor::FromVector(Shape{n, n}, bv)}};

      SessionOptions off;
      off.optimizer_level = optimizer::OptimizerLevel::kOff;
      auto r_off = rt.NewSession(off)->Run(feeds, {f.name(), r.name()});
      ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

      SessionOptions aggressive;
      aggressive.optimizer_level = optimizer::OptimizerLevel::kAggressive;
      aggressive.graph_check = GraphCheckMode::kStrict;
      RunOptions trace;
      trace.trace = true;
      RunMetadata meta;
      auto r_on = rt.NewSession(aggressive)->Run(feeds, {f.name(), r.name()},
                                                 {}, trace, &meta);
      ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
      bool fused_ran = false;
      for (const auto& node : meta.nodes) {
        fused_ran |= node.op == "FusedElementwise";
      }
      ASSERT_TRUE(fused_ran) << "the Mul/Add chain must run fused";

      unfused = std::move(*r_off);
      fused = std::move(*r_on);
      ASSERT_EQ(fused.size(), 2u);
      for (size_t i = 0; i < fused.size(); ++i) {
        EXPECT_TRUE(fused[i].BitwiseEquals(unfused[i])) << "fetch " << i;
      }
    }  // runtime, devices and every step arena destroyed here
    for (size_t i = 0; i < fused.size(); ++i) {
      EXPECT_TRUE(fused[i].BitwiseEquals(unfused[i]))
          << "fetch " << i << " after the runtime is gone";
    }
  }
}

// ---- vector operands + trailing reductions ---------------------------------------

TEST(FusedVectorOperandTest, VectorOperandsFuseAtEveryStage) {
  // Every stage consumes a full-length vector external — no scalars anywhere.
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{32}, "x");
  auto y = ops::Placeholder(s, DType::kF64, Shape{32}, "y");
  auto z = ops::Placeholder(s, DType::kF64, Shape{32}, "z");
  auto a = ops::Add(s, x, y);
  auto b = ops::Mul(s, a, z);
  auto out = ops::Sub(s, b, y);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kAggressive;
  opts.feeds = {"x", "y", "z"};
  opts.fetches = {out.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CountOp(r->graph, "FusedElementwise"), 1);
  EXPECT_EQ(CountOp(r->graph, "Add"), 0);
  EXPECT_EQ(CountOp(r->graph, "Mul"), 0);
  EXPECT_EQ(CountOp(r->graph, "Sub"), 0);
}

TEST(FusedVectorOperandTest, VectorChainMatchesUnfusedBitExact) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF32, Shape{48}, "x");
  auto y = ops::Placeholder(s, DType::kF32, Shape{48}, "y");
  auto a = ops::Mul(s, x, y);
  auto b = ops::Add(s, a, y);
  auto out = ops::Div(s, b, x);

  std::vector<float> xv(48), yv(48);
  for (int i = 0; i < 48; ++i) {
    xv[static_cast<size_t>(i)] = 0.5f + static_cast<float>(i) * 0.25f;
    yv[static_cast<size_t>(i)] = static_cast<float>(i - 24) * 1.125f;
  }
  const Tensor fx = Tensor::FromVector(xv);
  const Tensor fy = Tensor::FromVector(yv);

  SessionOptions off;
  off.optimizer_level = optimizer::OptimizerLevel::kOff;
  auto plain = rt.NewSession(off);
  auto r_off = plain->Run({{"x", fx}, {"y", fy}}, {out.name()});
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

  SessionOptions aggressive;
  aggressive.optimizer_level = optimizer::OptimizerLevel::kAggressive;
  aggressive.graph_check = GraphCheckMode::kStrict;
  auto opt = rt.NewSession(aggressive);
  auto r_on = opt->Run({{"x", fx}, {"y", fy}}, {out.name()});
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  EXPECT_EQ(std::memcmp((*r_off)[0].data<float>().data(),
                        (*r_on)[0].data<float>().data(), 48 * sizeof(float)),
            0);
}

TEST(FusedReductionTest, AxpyDotStreamsAndMatchesUnfusedBitExact) {
  // CG's hot pair: p = alpha*x + y, then <p, p> — fused into one sweep. The
  // vector spans multiple reduction chunks so the streamed path really runs
  // its chunk loop, and the scalar must match the unfused graph bit for bit.
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  const int64_t n = 10000;
  auto x = ops::Placeholder(s, DType::kF64, Shape{n}, "x");
  auto y = ops::Placeholder(s, DType::kF64, Shape{n}, "y");
  auto alpha = ops::Const(s, Tensor::Scalar(0.375), "alpha");
  auto p = ops::Axpy(s, alpha, x, y);
  auto out = ops::Dot(s, p, p);

  std::vector<double> xv(static_cast<size_t>(n)), yv(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    xv[static_cast<size_t>(i)] = std::sin(0.01 * static_cast<double>(i));
    yv[static_cast<size_t>(i)] = std::cos(0.007 * static_cast<double>(i));
  }
  const Tensor fx = Tensor::FromVector(xv);
  const Tensor fy = Tensor::FromVector(yv);

  SessionOptions off;
  off.optimizer_level = optimizer::OptimizerLevel::kOff;
  auto plain = rt.NewSession(off);
  auto r_off = plain->Run({{"x", fx}, {"y", fy}}, {out.name()});
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

  SessionOptions aggressive;
  aggressive.optimizer_level = optimizer::OptimizerLevel::kAggressive;
  aggressive.graph_check = GraphCheckMode::kStrict;
  auto opt = rt.NewSession(aggressive);
  RunOptions trace;
  trace.trace = true;
  RunMetadata meta;
  auto r_on = opt->Run({{"x", fx}, {"y", fy}}, {out.name()}, {}, trace, &meta);
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();

  ASSERT_TRUE((*r_on)[0].shape().IsScalar());
  EXPECT_EQ(*(*r_off)[0].data<double>().data(),
            *(*r_on)[0].data<double>().data())
      << "fused trailing Dot must match the unfused graph bit for bit";
  bool fused_ran = false, standalone_dot = false;
  for (const auto& nd : meta.nodes) {
    fused_ran |= nd.op == "FusedElementwise";
    standalone_dot |= nd.op == "Dot";
  }
  EXPECT_TRUE(fused_ran);
  EXPECT_FALSE(standalone_dot) << "the Dot must be absorbed into the chain";
}

TEST(FusedReductionTest, MulReduceSumMatchesUnfusedBitExactF32) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  const int64_t n = 4096 * 2 + 17;  // straddles chunk boundaries + a tail
  auto x = ops::Placeholder(s, DType::kF32, Shape{n}, "x");
  auto y = ops::Placeholder(s, DType::kF32, Shape{n}, "y");
  auto prod = ops::Mul(s, x, y);
  auto out = ops::ReduceSum(s, prod);

  std::vector<float> xv(static_cast<size_t>(n)), yv(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    xv[static_cast<size_t>(i)] =
        static_cast<float>(std::sin(0.013 * static_cast<double>(i)));
    yv[static_cast<size_t>(i)] =
        static_cast<float>(std::cos(0.003 * static_cast<double>(i)));
  }
  const Tensor fx = Tensor::FromVector(xv);
  const Tensor fy = Tensor::FromVector(yv);

  SessionOptions off;
  off.optimizer_level = optimizer::OptimizerLevel::kOff;
  auto plain = rt.NewSession(off);
  auto r_off = plain->Run({{"x", fx}, {"y", fy}}, {out.name()});
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

  SessionOptions aggressive;
  aggressive.optimizer_level = optimizer::OptimizerLevel::kAggressive;
  aggressive.graph_check = GraphCheckMode::kStrict;
  auto opt = rt.NewSession(aggressive);
  auto r_on = opt->Run({{"x", fx}, {"y", fy}}, {out.name()});
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  EXPECT_EQ(*(*r_off)[0].data<float>().data(),
            *(*r_on)[0].data<float>().data());
}

TEST(FusedReductionTest, CastChainReductionMatchesUnfused) {
  // A Cast inside the chain forces the materialize-then-reduce fallback;
  // it must still agree with the unfused graph exactly.
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF32, Shape{600}, "x");
  auto wide = ops::Cast(s, x, DType::kF64);
  auto scaled = ops::Mul(s, wide, ops::Const(s, Tensor::Scalar(1.0 / 3.0)));
  auto out = ops::ReduceSum(s, scaled);

  std::vector<float> xv(600);
  for (int i = 0; i < 600; ++i) {
    xv[static_cast<size_t>(i)] = static_cast<float>(i % 23) * 0.875f - 5.0f;
  }
  const Tensor fx = Tensor::FromVector(xv);

  SessionOptions off;
  off.optimizer_level = optimizer::OptimizerLevel::kOff;
  auto plain = rt.NewSession(off);
  auto r_off = plain->Run({{"x", fx}}, {out.name()});
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();

  SessionOptions aggressive;
  aggressive.optimizer_level = optimizer::OptimizerLevel::kAggressive;
  aggressive.graph_check = GraphCheckMode::kStrict;
  auto opt = rt.NewSession(aggressive);
  auto r_on = opt->Run({{"x", fx}}, {out.name()});
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  EXPECT_EQ(*(*r_off)[0].data<double>().data(),
            *(*r_on)[0].data<double>().data());
}

TEST(FusedReductionTest, FetchedTailKeepsReductionStandalone) {
  // Fetching the elementwise tail pins its name, so the reduction cannot be
  // absorbed — it must survive as a standalone Dot.
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{16}, "x");
  auto c = ops::Const(s, Tensor::Scalar(2.0), "c");
  auto a = ops::Add(s, x, c);
  auto b = ops::Mul(s, a, c);
  auto d = ops::Dot(s, b, b);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kAggressive;
  opts.feeds = {"x"};
  opts.fetches = {b.node->name(), d.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CountOp(r->graph, "Dot"), 1);
  const wire::NodeDef* kept = FindDef(r->graph, d.node->name());
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->op, "Dot");
}

TEST(FusedReductionTest, SingleStagePlusReductionFuses) {
  // Even a one-op elementwise prefix is worth fusing with its reduction:
  // Mul + ReduceSum collapses two sweeps into one.
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{64}, "x");
  auto y = ops::Placeholder(s, DType::kF64, Shape{64}, "y");
  auto prod = ops::Mul(s, x, y);
  auto out = ops::ReduceSum(s, prod);

  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kAggressive;
  opts.feeds = {"x", "y"};
  opts.fetches = {out.node->name()};
  auto r = optimizer::RunPassPipeline(g.ToGraphDef(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CountOp(r->graph, "FusedElementwise"), 1);
  EXPECT_EQ(CountOp(r->graph, "Mul"), 0);
  EXPECT_EQ(CountOp(r->graph, "ReduceSum"), 0);
}

// ---- optimized sessions end-to-end ----------------------------------------------

TEST(OptimizerSessionTest, OptimizedPlansAreCachedPerSignature) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto out = ops::Mul(s, ops::Add(s, x, ops::Const(s, Tensor::Scalar(1.0))),
                      ops::Const(s, Tensor::Scalar(2.0)));

  SessionOptions opts;
  opts.optimizer_level = optimizer::OptimizerLevel::kAggressive;
  auto session = rt.NewSession(opts);
  auto r1 = session->Run({{"x", Tensor::Scalar(3.0)}}, {out.name()});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_DOUBLE_EQ((*r1)[0].scalar<double>(), 8.0);
  auto r2 = session->Run({{"x", Tensor::Scalar(4.0)}}, {out.name()});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_DOUBLE_EQ((*r2)[0].scalar<double>(), 10.0);
  EXPECT_EQ(session->executable_cache_misses(), 1)
      << "the optimizer runs once per signature, not per step";
  EXPECT_EQ(session->executable_cache_hits(), 1);
}

}  // namespace
}  // namespace tfhpc
