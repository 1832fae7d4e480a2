// Tests for tfdbg-lite (tensor summaries, debug run mode) and the combined
// optimization pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/ops.h"
#include "optimizer/optimizer.h"
#include "runtime/session.h"

namespace tfhpc {
namespace {

// ---- SummarizeTensor --------------------------------------------------------------

TEST(DebugSummaryTest, BasicStats) {
  Tensor t = Tensor::FromVector(std::vector<double>{-1, 0, 2, 3});
  auto s = SummarizeTensor(t);
  ASSERT_TRUE(s.present);
  EXPECT_DOUBLE_EQ(s.min, -1);
  EXPECT_DOUBLE_EQ(s.max, 3);
  EXPECT_DOUBLE_EQ(s.mean, 1);
  EXPECT_DOUBLE_EQ(s.abs_max, 3);
  EXPECT_EQ(s.zero_count, 1);
  EXPECT_TRUE(s.healthy());
}

TEST(DebugSummaryTest, DetectsNanAndInf) {
  Tensor t = Tensor::FromVector(std::vector<double>{
      1.0, std::nan(""), std::numeric_limits<double>::infinity(), 3.0});
  auto s = SummarizeTensor(t);
  ASSERT_TRUE(s.present);
  EXPECT_EQ(s.nan_count, 1);
  EXPECT_EQ(s.inf_count, 1);
  EXPECT_FALSE(s.healthy());
  EXPECT_DOUBLE_EQ(s.mean, 2.0);  // finite values only
  EXPECT_NE(s.ToString().find("UNHEALTHY"), std::string::npos);
}

TEST(DebugSummaryTest, ComplexByMagnitude) {
  Tensor t(DType::kC128, Shape{2});
  t.mutable_data<std::complex<double>>()[0] = {3, 4};  // |z| = 5
  t.mutable_data<std::complex<double>>()[1] = {0, 0};
  auto s = SummarizeTensor(t);
  ASSERT_TRUE(s.present);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_EQ(s.zero_count, 1);
}

TEST(DebugSummaryTest, MetaAndEmptyAbsent) {
  EXPECT_FALSE(SummarizeTensor(Tensor()).present);
  EXPECT_FALSE(SummarizeTensor(Tensor(DType::kF64, Shape{0})).present);
}

TEST(DebugRunTest, SummariesAttachedPerNode) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto a = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2}), "a");
  auto b = ops::Mul(s, a, a);
  RunOptions opts;
  opts.debug = true;
  RunMetadata meta;
  ASSERT_TRUE(rt.NewSession()->Run({}, {b.name()}, {}, opts, &meta).ok());
  ASSERT_EQ(meta.nodes.size(), 2u);
  bool saw_mul = false;
  for (const auto& n : meta.nodes) {
    if (n.op == "Mul") {
      saw_mul = true;
      ASSERT_EQ(n.output_summaries.size(), 1u);
      EXPECT_DOUBLE_EQ(n.output_summaries[0].max, 4);
    }
  }
  EXPECT_TRUE(saw_mul);
  const std::string report = FormatDebugReport(meta);
  EXPECT_NE(report.find("Mul"), std::string::npos);
  EXPECT_NE(report.find("max=4"), std::string::npos);
}

TEST(DebugRunTest, CatchesNanProducingStep) {
  // The tfdbg use case: a step that silently produces NaN is flagged.
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto zero = ops::Const(s, Tensor::Scalar(0.0));
  auto nan = ops::Div(s, zero, zero);  // 0/0 = NaN
  RunOptions opts;
  opts.debug = true;
  RunMetadata meta;
  ASSERT_TRUE(rt.NewSession()->Run({}, {nan.name()}, {}, opts, &meta).ok());
  bool flagged = false;
  for (const auto& n : meta.nodes) {
    for (const auto& sum : n.output_summaries) {
      if (!sum.healthy()) flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

// ---- the optimizer pipeline at kBasic -------------------------------------------

Result<optimizer::PipelineResult> OptimizeBasic(
    const Graph& g, const std::vector<std::string>& fetches,
    const std::vector<std::string>& feeds = {}) {
  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.feeds = feeds;
  opts.fetches = fetches;
  return optimizer::RunPassPipeline(g.ToGraphDef(), opts);
}

TEST(OptimizeTest, PipelineComposesAllPasses) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Scalar(2.0), "a");
  auto b = ops::Const(s, Tensor::Scalar(2.0), "b");  // CSE-duplicate of a
  auto sum = ops::Add(s, a, b);                       // foldable
  auto out = ops::Mul(s, sum, sum);                   // foldable
  ops::Const(s, Tensor::Scalar(9.0), "dead");         // pruned

  auto opt = OptimizeBasic(g, {out.node->name()});
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  ASSERT_EQ(opt->passes.size(), 3u);
  EXPECT_EQ(opt->passes[0].name, "const_fold");
  EXPECT_EQ(opt->passes[0].nodes_before, 5);
  EXPECT_GE(opt->passes[0].changed, 2);
  EXPECT_EQ(opt->passes[1].name, "cse");
  EXPECT_EQ(opt->passes[1].changed, 1);
  EXPECT_EQ(opt->passes[2].name, "dead_node_elim");
  EXPECT_EQ(opt->passes[2].nodes_after, 1);  // single Const remains
  ASSERT_EQ(opt->graph.nodes.size(), 1u);
  EXPECT_EQ(opt->graph.nodes[0].op, "Const");

  // The optimized graph still evaluates to the same value.
  LocalRuntime rt(0);
  for (const auto& nd : opt->graph.nodes) {
    ASSERT_TRUE(rt.graph().AddNode(nd).ok());
  }
  auto r = rt.NewSession()->Run({}, {out.node->name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 16.0);
}

TEST(OptimizeTest, DynamicGraphOptimizesAroundPlaceholders) {
  Graph g;
  Scope s(&g);
  auto x = ops::Placeholder(s, DType::kF64, Shape{}, "x");
  auto k1 = ops::Const(s, Tensor::Scalar(3.0));
  auto k2 = ops::Const(s, Tensor::Scalar(4.0));
  auto ksum = ops::Add(s, k1, k2);  // folds to 7
  auto out = ops::Mul(s, x, ksum);

  auto opt = OptimizeBasic(g, {out.node->name()}, {"x"});
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  // Expect: placeholder + folded const + mul = 3 nodes.
  EXPECT_EQ(opt->graph.nodes.size(), 3u);
  LocalRuntime rt(0);
  for (const auto& nd : opt->graph.nodes) {
    ASSERT_TRUE(rt.graph().AddNode(nd).ok());
  }
  auto r = rt.NewSession()->Run({{"x", Tensor::Scalar(2.0)}},
                                {out.node->name()});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0].scalar<double>(), 14.0);
}

TEST(OptimizeTest, UnknownTargetFails) {
  Graph g;
  Scope s(&g);
  ops::Const(s, Tensor::Scalar(1.0), "a");
  EXPECT_FALSE(OptimizeBasic(g, {"ghost"}).ok());
}

}  // namespace
}  // namespace tfhpc
