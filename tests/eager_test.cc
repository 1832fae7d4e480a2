// Tests for eager execution and the constant-folding pass.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/ops.h"
#include "optimizer/optimizer.h"
#include "runtime/const_fold.h"
#include "runtime/eager.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

// ---- Eager ---------------------------------------------------------------------

TEST(EagerTest, MatMulImmediate) {
  eager::EagerContext ctx(1);
  Tensor a = Tensor::FromVector(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape{2, 2}, std::vector<float>{5, 6, 7, 8});
  auto c = eager::MatMul(ctx, a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_FLOAT_EQ((c->at<float>(0, 0)), 19);
  EXPECT_FLOAT_EQ((c->at<float>(1, 1)), 50);
}

TEST(EagerTest, ChainedImperativeOps) {
  eager::EagerContext ctx(1);
  Tensor x = Tensor::FromVector(std::vector<double>{1, 2, 3});
  auto y = eager::Add(ctx, x, x);
  ASSERT_TRUE(y.ok());
  auto z = eager::Dot(ctx, *y, x);
  ASSERT_TRUE(z.ok());
  EXPECT_DOUBLE_EQ(z->scalar<double>(), 28);  // 2*1+4*2+6*3
}

TEST(EagerTest, MatchesGraphModeBitExactly) {
  // Same kernels, same results: eager FFT == graph-mode FFT.
  Tensor sig(DType::kC128, Shape{32});
  FillUniform(sig, 9, -1, 1);

  eager::EagerContext ectx(1);
  auto eager_out = eager::Fft(ectx, sig);
  ASSERT_TRUE(eager_out.ok());

  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto g = ops::Fft(s, ops::Const(s, sig));
  auto graph_out = rt.NewSession()->Run({}, {g.name()});
  ASSERT_TRUE(graph_out.ok());
  EXPECT_TRUE(eager_out->BitwiseEquals((*graph_out)[0]));
}

TEST(EagerTest, ExplicitDevicePlacement) {
  eager::EagerContext ctx(2);
  Tensor a = Tensor::FromVector(Shape{1, 1}, std::vector<float>{3});
  auto r = ctx.Execute1("MatMul", {a, a}, {}, "/gpu:1");
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ((r->at<float>(0, 0)), 9);
  EXPECT_FALSE(ctx.Execute1("MatMul", {a, a}, {}, "/gpu:7").ok());
}

TEST(EagerTest, VariablesPersistInContext) {
  eager::EagerContext ctx(1);
  Variable* v = ctx.resources().LookupOrCreateVariable("acc");
  ASSERT_TRUE(v->Accumulate(Tensor::Scalar(2.0)).ok());
  ASSERT_TRUE(v->Accumulate(Tensor::Scalar(3.0)).ok());
  EXPECT_DOUBLE_EQ(v->Read()->scalar<double>(), 5.0);
}

TEST(EagerTest, ErrorsSurfaceDirectly) {
  eager::EagerContext ctx(1);
  Tensor a(DType::kF32, Shape{2, 3});
  Tensor b(DType::kF32, Shape{2, 3});
  auto r = eager::MatMul(ctx, a, b);  // inner dims mismatch
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
  EXPECT_FALSE(ctx.Execute1("NoSuchOp", {}).ok());
  EXPECT_FALSE(ctx.Execute1("Add", {a}).ok());  // arity
}

// ---- Constant folding ------------------------------------------------------------

TEST(ConstFoldTest, FoldsPureConstSubgraph) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Scalar(2.0), "a");
  auto b = ops::Const(s, Tensor::Scalar(3.0), "b");
  auto sum = ops::Add(s, a, b);
  auto twice = ops::Mul(s, sum, sum);

  auto folded = ConstantFolding(g.ToGraphDef());
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->folded_nodes, 2);  // Add and Mul both folded

  // The folded graph must evaluate identically.
  auto g2 = Graph::FromGraphDef(folded->graph);
  ASSERT_TRUE(g2.ok());
  const Node* n = (*g2)->FindNode(twice.node->name());
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->op(), "Const");
  LocalRuntime rt(0);
  // Execute the folded def inside a fresh runtime graph.
  for (const auto& nd : folded->graph.nodes) {
    ASSERT_TRUE(rt.graph().AddNode(nd).ok());
  }
  auto r = rt.NewSession()->Run({}, {twice.node->name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 25.0);
}

TEST(ConstFoldTest, StopsAtPlaceholders) {
  Graph g;
  Scope s(&g);
  auto p = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto c = ops::Const(s, Tensor::Scalar(1.0));
  auto mixed = ops::Add(s, p, c);
  (void)mixed;
  auto folded = ConstantFolding(g.ToGraphDef());
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->folded_nodes, 0);
}

TEST(ConstFoldTest, SkipsStatefulOps) {
  Graph g;
  Scope s(&g);
  auto r = ops::RandomUniform(s, Shape{2}, DType::kF32, 1);
  auto sum = ops::ReduceSum(s, r);
  (void)sum;
  auto folded = ConstantFolding(g.ToGraphDef());
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->folded_nodes, 0);  // RandomUniform is stateful
}

TEST(ConstFoldTest, RespectsSizeLimit) {
  Graph g;
  Scope s(&g);
  auto big = ops::Fill(s, DType::kF64, Shape{1024}, 1.0);
  auto neg = ops::Neg(s, big);
  (void)neg;
  ConstFoldOptions opts;
  opts.max_output_bytes = 16;  // too small for 8 KiB results
  auto folded = ConstantFolding(g.ToGraphDef(), opts);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->folded_nodes, 0);
}

TEST(ConstFoldTest, FoldedGraphShrinksAfterPrune) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Scalar(2.0), "a");
  auto chain = ops::Add(s, a, a);
  for (int i = 0; i < 5; ++i) chain = ops::Mul(s, chain, a);
  auto folded = ConstantFolding(g.ToGraphDef());
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->folded_nodes, 6);
  // The optimizer pipeline's dead-node pass prunes to the fetch.
  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.fetches = {chain.node->name()};
  auto pruned = optimizer::RunPassPipeline(folded->graph, opts);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  ASSERT_EQ(pruned->graph.nodes.size(), 1u);  // a single Const remains
  EXPECT_EQ(pruned->graph.nodes[0].op, "Const");
  EXPECT_EQ(pruned->graph.nodes[0].name, chain.node->name());
}

TEST(ConstFoldTest, LeavesControlDependentNodesAlone) {
  Graph g;
  Scope s(&g);
  ops::Const(s, Tensor::Scalar(1.0), "a");
  wire::NodeDef def;
  def.name = "gated";
  def.op = "Neg";
  def.inputs = {"a", "^a"};  // control input blocks folding
  ASSERT_TRUE(g.AddNode(def).ok());
  auto folded = ConstantFolding(g.ToGraphDef());
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->folded_nodes, 0);
}

}  // namespace
}  // namespace tfhpc
