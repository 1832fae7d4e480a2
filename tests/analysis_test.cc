// Tests for GraphCheck (src/analysis): structural verifier, static
// shape/dtype inference, dataflow lints, partition-plan checks, and the
// Session strict/warn integration (including output placement from the
// memory plan).
#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "apps/app_graphs.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "wire/messages.h"

namespace tfhpc {
namespace {

using analysis::AnalysisOptions;
using analysis::Diagnostic;
using analysis::GraphAnalysis;
using analysis::InferredShape;
using analysis::InferredTensor;
using analysis::MergeShapes;
using analysis::Severity;
using analysis::VerifyGraph;
using analysis::VerifyPartitions;

wire::NodeDef MakeNode(std::string name, std::string op,
                       std::vector<std::string> inputs = {},
                       std::map<std::string, wire::AttrValue> attrs = {}) {
  wire::NodeDef nd;
  nd.name = std::move(name);
  nd.op = std::move(op);
  nd.inputs = std::move(inputs);
  nd.attrs = std::move(attrs);
  return nd;
}

wire::NodeDef Typed(wire::NodeDef nd, DType dtype, Shape shape) {
  nd.attrs["dtype"] = wire::AttrValue::Type(dtype);
  nd.attrs["shape"] = wire::AttrValue::OfShape(std::move(shape));
  return nd;
}

// Returns the first diagnostic with `code`, or null.
const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                       const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---- structural verifier ----------------------------------------------------

TEST(GraphCheckStructuralTest, CleanGraphHasNoFindings) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{4}));
  def.nodes.push_back(
      Typed(MakeNode("b", "Placeholder"), DType::kF32, Shape{4}));
  def.nodes.push_back(MakeNode("sum", "Add", {"a", "b"}));
  const GraphAnalysis ga = VerifyGraph(def, {{}, {"sum"}, {}});
  EXPECT_TRUE(ga.diagnostics.empty())
      << analysis::FormatDiagnostics(ga.diagnostics);
}

TEST(GraphCheckStructuralTest, GC001DuplicateName) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  const GraphAnalysis ga = VerifyGraph(def);
  const Diagnostic* d = Find(ga.diagnostics, "GC001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->node, "x");

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  ok.nodes.push_back(
      Typed(MakeNode("y", "Placeholder"), DType::kF32, Shape{2}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC001"), nullptr);
}

TEST(GraphCheckStructuralTest, GC001EmptyName) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("", "Placeholder"), DType::kF32, Shape{2}));
  EXPECT_NE(Find(VerifyGraph(def).diagnostics, "GC001"), nullptr);
}

TEST(GraphCheckStructuralTest, GC002UnknownOp) {
  wire::GraphDef def;
  def.nodes.push_back(MakeNode("m", "MisteryOp"));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC002");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("MisteryOp"), std::string::npos);

  wire::GraphDef ok;
  ok.nodes.push_back(MakeNode("n", "NoOp"));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC002"), nullptr);
}

TEST(GraphCheckStructuralTest, GC003UnresolvableInput) {
  wire::GraphDef def;
  def.nodes.push_back(MakeNode("i", "Identity", {"ghost"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "i");

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("src", "Placeholder"), DType::kF32, Shape{2}));
  ok.nodes.push_back(MakeNode("i", "Identity", {"src"}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC003"), nullptr);
}

TEST(GraphCheckStructuralTest, GC003UnresolvableFetch) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  const GraphAnalysis ga = VerifyGraph(def, {{}, {"nothere"}, {}});
  EXPECT_NE(Find(ga.diagnostics, "GC003"), nullptr);
}

TEST(GraphCheckStructuralTest, GC004SlotOutOfRange) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("src", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(MakeNode("i", "Identity", {"src:3"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC004");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("slot 3"), std::string::npos);

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("src", "Placeholder"), DType::kF32, Shape{2}));
  ok.nodes.push_back(MakeNode("i", "Identity", {"src:0"}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC004"), nullptr);
}

TEST(GraphCheckStructuralTest, GC005ArityViolation) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(MakeNode("sum", "Add", {"a"}));  // Add wants 2
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "sum");

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  ok.nodes.push_back(MakeNode("sum", "Add", {"a", "a"}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC005"), nullptr);
}

TEST(GraphCheckStructuralTest, GC006CycleNamesThePath) {
  wire::GraphDef def;
  def.nodes.push_back(MakeNode("a", "Identity", {"c"}));
  def.nodes.push_back(MakeNode("b", "Identity", {"a"}));
  def.nodes.push_back(MakeNode("c", "Identity", {"b"}));
  const GraphAnalysis ga = VerifyGraph(def);
  const Diagnostic* d = Find(ga.diagnostics, "GC006");
  ASSERT_NE(d, nullptr);
  // The trace follows dataflow direction and closes the loop.
  EXPECT_NE(d->message.find("a -> b -> c -> a"), std::string::npos)
      << d->message;
  // Cycle members produce no annotations (their shapes are undefined).
  EXPECT_EQ(ga.annotations.count("a"), 0u);

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  ok.nodes.push_back(MakeNode("b", "Identity", {"a"}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC006"), nullptr);
}

TEST(GraphCheckStructuralTest, GC006TwoNodeCycle) {
  wire::GraphDef def;
  def.nodes.push_back(MakeNode("a", "Identity", {"b"}));
  def.nodes.push_back(MakeNode("b", "Identity", {"a"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC006");
  ASSERT_NE(d, nullptr);
  const bool named = d->message.find("a -> b -> a") != std::string::npos ||
                     d->message.find("b -> a -> b") != std::string::npos;
  EXPECT_TRUE(named) << d->message;
}

TEST(GraphCheckStructuralTest, GC007InvalidDevice) {
  wire::GraphDef def;
  wire::NodeDef nd = Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2});
  nd.device = "/bogus::!";
  def.nodes.push_back(nd);
  EXPECT_NE(Find(VerifyGraph(def).diagnostics, "GC007"), nullptr);

  wire::GraphDef ok;
  wire::NodeDef good =
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2});
  good.device = "/job:worker/task:0/gpu:0";
  ok.nodes.push_back(good);
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC007"), nullptr);
}

TEST(GraphCheckStructuralTest, GC008DuplicateControlEdge) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(MakeNode("n", "NoOp", {"^a", "^a"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC008");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  ok.nodes.push_back(MakeNode("n", "NoOp", {"^a"}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC008"), nullptr);
}

TEST(GraphCheckStructuralTest, GC008ControlEdgeShadowedByDataEdge) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(MakeNode("i", "Identity", {"a", "^a"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC008");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("redundant"), std::string::npos);
}

// ---- shape & dtype inference ------------------------------------------------

TEST(ShapeInferenceTest, MergeShapesUnifiesUnknowns) {
  const InferredShape a = InferredShape::Of({128, -1});
  const InferredShape b = InferredShape::Of({-1, 64});
  const auto merged = MergeShapes(a, b);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->dims, (std::vector<int64_t>{128, 64}));
  EXPECT_TRUE(merged->fully_known());

  // Unknown rank defers entirely to the known side.
  const auto deferred = MergeShapes(InferredShape::Unknown(), a);
  ASSERT_TRUE(deferred.ok());
  EXPECT_EQ(*deferred, a);
}

TEST(ShapeInferenceTest, MergeShapesRejectsProvableConflicts) {
  const auto rank = MergeShapes(InferredShape::Of({2}), InferredShape::Of({2, 2}));
  ASSERT_FALSE(rank.ok());
  EXPECT_EQ(analysis::ExtractCode(rank.status().message()), "GC010");

  const auto extent =
      MergeShapes(InferredShape::Of({4}), InferredShape::Of({5}));
  ASSERT_FALSE(extent.ok());
  EXPECT_EQ(analysis::ExtractCode(extent.status().message()), "GC010");
}

TEST(ShapeInferenceTest, ToStringFormats) {
  EXPECT_EQ(InferredShape::Unknown().ToString(), "?");
  EXPECT_EQ(InferredShape::Scalar().ToString(), "[]");
  EXPECT_EQ(InferredShape::Of({128, -1}).ToString(), "[128, ?]");
}

TEST(GraphCheckInferenceTest, AnnotatesKnownShapes) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{3, 4}));
  def.nodes.push_back(
      Typed(MakeNode("b", "Placeholder"), DType::kF32, Shape{4, 5}));
  def.nodes.push_back(MakeNode("mm", "MatMul", {"a", "b"}));
  def.nodes.push_back(MakeNode("tot", "ReduceSum", {"mm"}));
  const GraphAnalysis ga = VerifyGraph(def);
  EXPECT_FALSE(ga.has_errors()) << analysis::FormatDiagnostics(ga.diagnostics);

  ASSERT_EQ(ga.annotations.count("mm"), 1u);
  const InferredTensor& mm = ga.annotations.at("mm")[0];
  EXPECT_EQ(mm.dtype, DType::kF32);
  EXPECT_EQ(mm.shape, InferredShape::Of({3, 5}));

  const InferredTensor& tot = ga.annotations.at("tot")[0];
  EXPECT_EQ(tot.shape, InferredShape::Scalar());
}

TEST(GraphCheckInferenceTest, UnknownDimsPropagate) {
  wire::GraphDef def;
  // No shape attr: rank and extents unknown.
  wire::NodeDef a = MakeNode("a", "Placeholder");
  a.attrs["dtype"] = wire::AttrValue::Type(DType::kF32);
  def.nodes.push_back(a);
  def.nodes.push_back(
      Typed(MakeNode("b", "Placeholder"), DType::kF32, Shape{7}));
  def.nodes.push_back(MakeNode("sum", "Add", {"a", "b"}));
  const GraphAnalysis ga = VerifyGraph(def);
  EXPECT_FALSE(ga.has_errors()) << analysis::FormatDiagnostics(ga.diagnostics);
  // Elementwise unifies toward the known side.
  EXPECT_EQ(ga.annotations.at("sum")[0].shape, InferredShape::Of({7}));
  EXPECT_EQ(ga.annotations.at("sum")[0].dtype, DType::kF32);
}

TEST(GraphCheckInferenceTest, GC009DtypeConflict) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{4}));
  def.nodes.push_back(
      Typed(MakeNode("b", "Placeholder"), DType::kF64, Shape{4}));
  def.nodes.push_back(MakeNode("sum", "Add", {"a", "b"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC009");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "sum");

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{4}));
  ok.nodes.push_back(
      Typed(MakeNode("b", "Placeholder"), DType::kF32, Shape{4}));
  ok.nodes.push_back(MakeNode("sum", "Add", {"a", "b"}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC009"), nullptr);
}

TEST(GraphCheckInferenceTest, GC010MatMulInnerDimMismatch) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{3, 4}));
  def.nodes.push_back(
      Typed(MakeNode("b", "Placeholder"), DType::kF32, Shape{9, 5}));
  def.nodes.push_back(MakeNode("mm", "MatMul", {"a", "b"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC010");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "mm");
  // Downstream of the failed node stays unknown rather than cascading.
  const GraphAnalysis ga = VerifyGraph(def);
  EXPECT_FALSE(ga.annotations.at("mm")[0].shape.rank_known);

  wire::GraphDef ok;
  ok.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{3, 4}));
  ok.nodes.push_back(
      Typed(MakeNode("b", "Placeholder"), DType::kF32, Shape{4, 5}));
  ok.nodes.push_back(MakeNode("mm", "MatMul", {"a", "b"}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC010"), nullptr);
}

TEST(GraphCheckInferenceTest, GC017MissingRequiredAttr) {
  wire::GraphDef def;
  def.nodes.push_back(MakeNode("v", "Variable"));  // no dtype/shape attrs
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC017");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "v");

  wire::GraphDef ok;
  ok.nodes.push_back(Typed(MakeNode("v", "Variable"), DType::kF32, Shape{2}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC017"), nullptr);
}

// ---- dataflow lints ---------------------------------------------------------

TEST(GraphCheckLintTest, GC011DeadNodeWholeGraphOnly) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("a", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(MakeNode("used", "Identity", {"a"}));
  def.nodes.push_back(MakeNode("orphan", "Neg", {"a"}));
  // Whole-graph mode: `used` is unconsumed too, but `orphan` must appear.
  const GraphAnalysis whole = VerifyGraph(def);
  const Diagnostic* d = Find(whole.diagnostics, "GC011");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kInfo);

  // Closure mode: unreached nodes are normal step subsetting, not findings.
  const GraphAnalysis closure = VerifyGraph(def, {{}, {"used"}, {}});
  EXPECT_EQ(Find(closure.diagnostics, "GC011"), nullptr);
}

TEST(GraphCheckLintTest, GC012VariableReadWithoutInitializer) {
  wire::GraphDef def;
  def.nodes.push_back(Typed(MakeNode("v", "Variable"), DType::kF64, Shape{8}));
  def.nodes.push_back(MakeNode("read", "Identity", {"v"}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC012");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->node, "v");

  // An Assign anywhere in the graph counts as an initializer.
  wire::GraphDef ok = def;
  ok.nodes.push_back(
      Typed(MakeNode("zero", "Placeholder"), DType::kF64, Shape{8}));
  ok.nodes.push_back(MakeNode("init", "Assign", {"zero"},
                              {{"var", wire::AttrValue::Str("v")}}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC012"), nullptr);
}

TEST(GraphCheckLintTest, GC013DequeueWithNoEnqueueAnywhere) {
  wire::GraphDef def;
  def.nodes.push_back(MakeNode("drain", "QueueDequeue", {},
                               {{"queue", wire::AttrValue::Str("q")},
                                {"capacity", wire::AttrValue::Int(0)}}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC013");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "drain");

  // An enqueue for the queue — even outside the step closure — clears it:
  // another step may fill the queue first (the paper's pipelines do this).
  wire::GraphDef ok = def;
  ok.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  ok.nodes.push_back(MakeNode("fill", "QueueEnqueue", {"x"},
                              {{"queue", wire::AttrValue::Str("q")},
                               {"capacity", wire::AttrValue::Int(0)}}));
  EXPECT_EQ(Find(VerifyGraph(ok, {{}, {"drain"}, {}}).diagnostics, "GC013"),
            nullptr);
}

TEST(GraphCheckLintTest, GC013BoundedQueueOverfilledInOneStep) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  for (int i = 0; i < 3; ++i) {
    def.nodes.push_back(
        MakeNode("fill" + std::to_string(i), "QueueEnqueue", {"x"},
                 {{"queue", wire::AttrValue::Str("q")},
                  {"capacity", wire::AttrValue::Int(2)}}));
  }
  // 3 enqueues into capacity 2 with no dequeue: guaranteed deadlock.
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC013");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("capacity 2"), std::string::npos);

  // A dequeue in the same step keeps the queue draining.
  wire::GraphDef ok = def;
  ok.nodes.push_back(MakeNode("drain", "QueueDequeue", {},
                              {{"queue", wire::AttrValue::Str("q")},
                               {"capacity", wire::AttrValue::Int(2)}}));
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC013"), nullptr);
}

TEST(GraphCheckLintTest, GC014QueueDtypeProtocol) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(MakeNode("fill", "QueueEnqueue", {"x"},
                               {{"queue", wire::AttrValue::Str("q")},
                                {"capacity", wire::AttrValue::Int(0)}}));
  def.nodes.push_back(MakeNode("drain", "QueueDequeue", {},
                               {{"queue", wire::AttrValue::Str("q")},
                                {"capacity", wire::AttrValue::Int(0)},
                                {"dtype", wire::AttrValue::Type(DType::kF64)}}));
  const GraphAnalysis ga_ = VerifyGraph(def);
  const Diagnostic* d = Find(ga_.diagnostics, "GC014");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "drain");

  wire::GraphDef ok = def;
  ok.nodes.back().attrs["dtype"] = wire::AttrValue::Type(DType::kF32);
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC014"), nullptr);
}

TEST(GraphCheckLintTest, GC014MixedEnqueueDtypes) {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(
      Typed(MakeNode("y", "Placeholder"), DType::kC128, Shape{2}));
  for (const char* src : {"x", "y"}) {
    def.nodes.push_back(
        MakeNode(std::string("fill_") + src, "QueueEnqueue", {src},
                 {{"queue", wire::AttrValue::Str("q")},
                  {"capacity", wire::AttrValue::Int(0)}}));
  }
  EXPECT_NE(Find(VerifyGraph(def).diagnostics, "GC014"), nullptr);
}

TEST(GraphCheckLintTest, GC016AssignTargetMustBeCoLocatedVariable) {
  // Target is not a Variable at all.
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  def.nodes.push_back(MakeNode("w", "Assign", {"x"},
                               {{"var", wire::AttrValue::Str("x")}}));
  EXPECT_NE(Find(VerifyGraph(def).diagnostics, "GC016"), nullptr);

  // Target does not exist.
  wire::GraphDef undefined;
  undefined.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  undefined.nodes.push_back(MakeNode("w", "Assign", {"x"},
                                     {{"var", wire::AttrValue::Str("gone")}}));
  EXPECT_NE(Find(VerifyGraph(undefined).diagnostics, "GC016"), nullptr);

  // Writer and variable on different tasks: resource state is task-local.
  wire::GraphDef cross;
  wire::NodeDef v = Typed(MakeNode("v", "Variable"), DType::kF32, Shape{2});
  v.device = "/job:worker/task:0/cpu:0";
  cross.nodes.push_back(v);
  cross.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF32, Shape{2}));
  wire::NodeDef w = MakeNode("w", "Assign", {"x"},
                             {{"var", wire::AttrValue::Str("v")}});
  w.device = "/job:worker/task:1/cpu:0";
  cross.nodes.push_back(w);
  const GraphAnalysis ga_ = VerifyGraph(cross);
  const Diagnostic* d = Find(ga_.diagnostics, "GC016");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("task-local"), std::string::npos);

  // Same task: fine.
  wire::GraphDef ok = cross;
  ok.nodes.back().device = "/job:worker/task:0/cpu:0";
  EXPECT_EQ(Find(VerifyGraph(ok).diagnostics, "GC016"), nullptr);
}

// ---- partition-plan verification (GC015) ------------------------------------

wire::NodeDef SendNode(const std::string& name, const std::string& key,
                       const std::string& target) {
  return MakeNode(name, "_Send", {},
                  {{"key", wire::AttrValue::Str(key)},
                   {"target", wire::AttrValue::Str(target)}});
}

wire::NodeDef RecvNode(const std::string& name, const std::string& key) {
  return MakeNode(name, "_Recv", {}, {{"key", wire::AttrValue::Str(key)}});
}

TEST(GraphCheckPartitionTest, MatchedSendRecvIsClean) {
  std::map<std::string, wire::GraphDef> parts;
  parts["hostA:1"].nodes.push_back(SendNode("s", "edge0", "hostB:2"));
  parts["hostB:2"].nodes.push_back(RecvNode("r", "edge0"));
  EXPECT_TRUE(VerifyPartitions(parts).empty());
}

TEST(GraphCheckPartitionTest, GC015SendWithoutRecv) {
  std::map<std::string, wire::GraphDef> parts;
  parts["hostA:1"].nodes.push_back(SendNode("s", "edge0", "hostB:2"));
  parts["hostB:2"];  // target partition exists but holds no matching recv
  const auto diags = VerifyPartitions(parts);
  const Diagnostic* d = Find(diags, "GC015");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "s");
  EXPECT_NE(d->message.find("no matching _Recv"), std::string::npos);
}

TEST(GraphCheckPartitionTest, GC015SendToUnknownPartition) {
  std::map<std::string, wire::GraphDef> parts;
  parts["hostA:1"].nodes.push_back(SendNode("s", "edge0", "nowhere:9"));
  const auto diags = VerifyPartitions(parts);
  const Diagnostic* d = Find(diags, "GC015");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("unknown partition"), std::string::npos);
}

TEST(GraphCheckPartitionTest, GC015RecvWithoutSend) {
  std::map<std::string, wire::GraphDef> parts;
  parts["hostB:2"].nodes.push_back(RecvNode("r", "edge7"));
  const auto diags = VerifyPartitions(parts);
  const Diagnostic* d = Find(diags, "GC015");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "r");
  EXPECT_NE(d->message.find("no matching _Send"), std::string::npos);
}

TEST(GraphCheckPartitionTest, GC017SendMissingKey) {
  std::map<std::string, wire::GraphDef> parts;
  parts["hostA:1"].nodes.push_back(MakeNode("s", "_Send"));
  EXPECT_NE(Find(VerifyPartitions(parts), "GC017"), nullptr);
}

// ---- Session integration: strict / warn modes -------------------------------

TEST(SessionGraphCheckTest, StrictModeRejectsProvableConflict) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto a = ops::Placeholder(s, DType::kF32, Shape{4}, "a");
  auto b = ops::Placeholder(s, DType::kF64, Shape{4}, "b");
  auto sum = ops::Add(s, a, b);

  SessionOptions opts;
  opts.graph_check = GraphCheckMode::kStrict;
  auto sess = rt.NewSession(opts);
  const Tensor f32 = Tensor(DType::kF32, Shape{4});
  auto result = sess->Run({{"a", f32}, {"b", f32}}, {sum.name()});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kInvalidArgument);
  EXPECT_NE(result.status().message().find("graphcheck rejected"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("GC009"), std::string::npos);
}

TEST(SessionGraphCheckTest, WarnModeRunsTheSameGraph) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto a = ops::Placeholder(s, DType::kF32, Shape{4}, "a");
  auto b = ops::Placeholder(s, DType::kF64, Shape{4}, "b");
  auto sum = ops::Add(s, a, b);

  // Default mode is kWarn: the finding is reported but the step runs —
  // both placeholders are fed f32 at runtime, so the kernel is fine.
  auto sess = rt.NewSession();
  Tensor f32(DType::kF32, Shape{4});
  for (int i = 0; i < 4; ++i) f32.mutable_span<float>()[i] = 1.0f;
  auto result = sess->Run({{"a", f32}, {"b", f32}}, {sum.name()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FLOAT_EQ((*result)[0].data<float>()[0], 2.0f);
}

TEST(SessionGraphCheckTest, OffModeSkipsAnalysis) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto a = ops::Placeholder(s, DType::kF32, Shape{4}, "a");
  auto b = ops::Placeholder(s, DType::kF64, Shape{4}, "b");
  auto sum = ops::Add(s, a, b);

  SessionOptions opts;
  opts.graph_check = GraphCheckMode::kOff;
  auto sess = rt.NewSession(opts);
  Tensor f32(DType::kF32, Shape{4});
  auto result = sess->Run({{"a", f32}, {"b", f32}}, {sum.name()});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SessionGraphCheckTest, StrictModeRejectsGuaranteedDeadlockWithoutHanging) {
  // A dequeue on a queue nothing enqueues into would hang the executor
  // forever; strict GraphCheck rejects it at compile time instead. The test
  // completing at all is the "no hang" assertion.
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto out = ops::QueueDequeue(s, "never_filled");

  SessionOptions opts;
  opts.graph_check = GraphCheckMode::kStrict;
  auto sess = rt.NewSession(opts);
  auto result = sess->Run({}, {out.name()});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("GC013"), std::string::npos);
}

TEST(SessionGraphCheckTest, StrictModeAllowsCleanGraphs) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto a = ops::Const(s, Tensor::Scalar(2.0));
  auto b = ops::Const(s, Tensor::Scalar(3.0));
  auto prod = ops::Mul(s, a, b);

  SessionOptions opts;
  opts.graph_check = GraphCheckMode::kStrict;
  auto sess = rt.NewSession(opts);
  auto result = sess->Run({}, {prod.name()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ((*result)[0].data<double>()[0], 6.0);
}

// ---- output placement from the memory plan ----------------------------------

TEST(PlannedOutputTest, StaticallyKnownOutputsArePlanned) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  Tensor ta(DType::kF32, Shape{8, 8});
  Tensor tb(DType::kF32, Shape{8, 8});
  for (int i = 0; i < 64; ++i) {
    ta.mutable_span<float>()[i] = 1.0f;
    tb.mutable_span<float>()[i] = 2.0f;
  }
  auto a = ops::Const(s, ta);
  auto b = ops::Const(s, tb);
  auto mm = ops::MatMul(s, a, b);
  auto total = ops::ReduceSum(s, mm);

  // MatMul's output is fully known and only read by ReduceSum, so the plan
  // places it in the arena; the fetched sum leaves the step and stays on
  // the pool.
  auto sess = rt.NewSession();
  auto exe = sess->Prepare({}, {total.name()});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  EXPECT_EQ((*exe)->num_planned_nodes(), 1);
  EXPECT_EQ((*exe)->arena_bytes(), 8 * 8 * 4);

  auto result = sess->RunPrepared(**exe, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FLOAT_EQ((*result)[0].data<float>()[0], 8 * 2.0f * 64);
}

TEST(PlannedOutputTest, GraphCheckOffPlansNothing) {
  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto a = ops::Const(s, Tensor(DType::kF32, Shape{4, 4}));
  auto b = ops::Const(s, Tensor(DType::kF32, Shape{4, 4}));
  auto mm = ops::MatMul(s, a, b);
  auto total = ops::ReduceSum(s, mm);

  SessionOptions opts;
  opts.graph_check = GraphCheckMode::kOff;
  auto sess = rt.NewSession(opts);
  auto exe = sess->Prepare({}, {total.name()});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  EXPECT_EQ((*exe)->num_planned_nodes(), 0);
  EXPECT_EQ((*exe)->arena_bytes(), 0);
  EXPECT_EQ((*exe)->static_peak_bytes(), 0);
  ASSERT_TRUE(sess->RunPrepared(**exe, {}).ok());
}

// ---- application graphs pass the verifier -----------------------------------

TEST(AppGraphCheckTest, AllFourAppGraphsAreErrorFree) {
  {
    Graph g;
    Scope root(&g);
    apps::BuildStreamPushGraph(root, 1024);
    const GraphAnalysis ga = VerifyGraph(g.ToGraphDef());
    EXPECT_FALSE(ga.has_errors())
        << analysis::FormatDiagnostics(ga.diagnostics);
  }
  {
    Graph g;
    Scope root(&g);
    apps::BuildTiledMatmulGraph(root, 32);
    const GraphAnalysis ga = VerifyGraph(g.ToGraphDef());
    EXPECT_FALSE(ga.has_errors())
        << analysis::FormatDiagnostics(ga.diagnostics);
  }
  {
    Graph g;
    Scope root(&g);
    apps::BuildCgWorkerGraph(root, 16, 64);
    const GraphAnalysis ga = VerifyGraph(g.ToGraphDef());
    EXPECT_FALSE(ga.has_errors())
        << analysis::FormatDiagnostics(ga.diagnostics);
  }
  {
    Graph g;
    Scope root(&g);
    apps::BuildFftWorkerGraph(root, 128);
    const GraphAnalysis ga = VerifyGraph(g.ToGraphDef());
    EXPECT_FALSE(ga.has_errors())
        << analysis::FormatDiagnostics(ga.diagnostics);
  }
}

TEST(AppGraphCheckTest, AppGraphsGetFullShapeAnnotations) {
  Graph g;
  Scope root(&g);
  const apps::TiledMatmulGraph wg = apps::BuildTiledMatmulGraph(root, 32);
  const GraphAnalysis ga = VerifyGraph(g.ToGraphDef());
  const auto [name, slot] = std::pair<std::string, int>{wg.product, 0};
  const std::string base = name.substr(0, name.find(':'));
  ASSERT_EQ(ga.annotations.count(base), 1u);
  EXPECT_EQ(ga.annotations.at(base)[slot].shape, InferredShape::Of({32, 32}));
}

}  // namespace
}  // namespace tfhpc
