// Tests for static tensor liveness + the memory planner (src/analysis/
// liveness.h, memory_plan.h) and their runtime wiring: arena execution
// bit-identical to pool execution, two allocations per planned chain step,
// GC018 strict rejection before any kernel runs, and the ShapeFnRegistry
// coverage audit.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/liveness.h"
#include "analysis/memory_plan.h"
#include "analysis/shape_inference.h"
#include "analysis/verifier.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "wire/messages.h"

namespace tfhpc {
namespace {

using analysis::AnalysisOptions;
using analysis::Diagnostic;
using analysis::LivenessAnalysis;
using analysis::MemoryPlan;
using analysis::TensorLife;

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

// Verifies `def` (expecting no errors) and computes liveness for the
// signature.
LivenessAnalysis Live(const wire::GraphDef& def, const AnalysisOptions& opts) {
  const analysis::GraphAnalysis ga = analysis::VerifyGraph(def, opts);
  EXPECT_FALSE(ga.has_errors()) << analysis::FormatDiagnostics(ga.diagnostics);
  auto live = LivenessAnalysis::Compute(def, opts, ga.annotations);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return *live;
}

const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                       const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// A small all-static chain: x -> a = x+x -> b = a*a -> c = sqrt(b).
wire::GraphDef ChainDef() {
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF64, Shape{8}));
  def.nodes.push_back(MakeNode("a", "Add", {"x", "x"}));
  def.nodes.push_back(MakeNode("b", "Mul", {"a", "a"}));
  def.nodes.push_back(MakeNode("c", "Sqrt", {"b"}));
  return def;
}

// ---- liveness edge cases ----------------------------------------------------

TEST(LivenessTest, FedTensorLiveFromStepStart) {
  const wire::GraphDef def = ChainDef();
  const LivenessAnalysis live = Live(def, {{"x"}, {"c"}, {}});

  const TensorLife* x = live.Find("x", 0);
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->fed);
  // Fed storage is caller-owned across the whole step: never reusable, at
  // any position.
  for (int pos = 0; pos < live.num_nodes(); ++pos) {
    EXPECT_FALSE(live.DeadBefore(*x, pos)) << "position " << pos;
  }

  // And the planner must neither place it in the arena nor charge it to the
  // static peak.
  const MemoryPlan plan = MemoryPlan::Plan(live);
  EXPECT_EQ(plan.Find("x", 0), nullptr);
}

TEST(LivenessTest, FetchedTensorLiveToStepEnd) {
  const wire::GraphDef def = ChainDef();
  const LivenessAnalysis live = Live(def, {{"x"}, {"a", "c"}, {}});

  // `a` is fetched mid-chain: its interval must stretch to the last
  // schedule position even though its last consumer (`b`) runs earlier.
  const TensorLife* a = live.Find("a", 0);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->fetched);
  EXPECT_EQ(a->last, live.num_nodes() - 1);
  for (int pos = 0; pos < live.num_nodes(); ++pos) {
    EXPECT_FALSE(live.DeadBefore(*a, pos));
  }

  // Fetched tensors leave the step: the arena must not own their bytes.
  const MemoryPlan plan = MemoryPlan::Plan(live);
  EXPECT_EQ(plan.Find("a", 0), nullptr);
  EXPECT_EQ(plan.Find("c", 0), nullptr);
}

TEST(LivenessTest, ControlEdgeConsumerExtendsLifetime) {
  // a's value is consumed only by b, but c holds a control edge on a: a's
  // tensor must stay pinned until c completes (the edge orders the node,
  // conservatively pinning every output slot).
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF64, Shape{4}));
  def.nodes.push_back(MakeNode("a", "Add", {"x", "x"}));
  def.nodes.push_back(MakeNode("b", "Mul", {"a", "a"}));
  def.nodes.push_back(MakeNode("c", "Sqrt", {"b", "^a"}));
  const LivenessAnalysis live = Live(def, {{"x"}, {"c"}, {}});

  const TensorLife* a = live.Find("a", 0);
  ASSERT_NE(a, nullptr);
  const int c_pos = live.PositionOf("c");
  ASSERT_GE(c_pos, 0);
  EXPECT_NE(std::find(a->uses.begin(), a->uses.end(), c_pos), a->uses.end())
      << "control consumer missing from uses";
  EXPECT_GE(a->last, c_pos);
  // Not dead at c (c itself uses it) — only past every use.
  EXPECT_FALSE(live.DeadBefore(*a, c_pos));
}

TEST(LivenessTest, DynamicTensorExcludedFromArena) {
  // Hand the analysis an annotation map that knows `x` and `a` but not `b`:
  // b's extent is unknown, so it must be counted dynamic and kept out of
  // both the arena and the static peak (which becomes a partial bound the
  // plan flags via dynamic_tensors).
  const wire::GraphDef def = ChainDef();
  const AnalysisOptions opts{{"x"}, {"c"}, {}};
  const analysis::GraphAnalysis ga = analysis::VerifyGraph(def, opts);
  ASSERT_FALSE(ga.has_errors());
  auto annotations = ga.annotations;
  annotations.erase("b");
  annotations.erase("c");
  auto live = LivenessAnalysis::Compute(def, opts, annotations);
  ASSERT_TRUE(live.ok());

  const TensorLife* b = live->Find("b", 0);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->statically_sized());

  const MemoryPlan plan = MemoryPlan::Plan(*live);
  EXPECT_EQ(plan.Find("b", 0), nullptr);
  EXPECT_EQ(plan.dynamic_tensors(), 2);  // b and fetched c
}

TEST(LivenessTest, PlanIsDeterministicAcrossRepeatedComputes) {
  const wire::GraphDef def = ChainDef();
  const AnalysisOptions opts{{"x"}, {"c"}, {}};

  auto once = [&]() {
    const LivenessAnalysis live = Live(def, opts);
    const MemoryPlan plan = MemoryPlan::Plan(live);
    return std::make_pair(plan.ToString(live), plan.arena_bytes());
  };
  const auto [text1, arena1] = once();
  const auto [text2, arena2] = once();
  EXPECT_EQ(text1, text2);
  EXPECT_EQ(arena1, arena2);
}

TEST(LivenessTest, UnorderedTensorsNeverShareOffsets) {
  // Two independent branches off one feed: their tensors are concurrent
  // (neither happens-before the other), so the planner must give them
  // disjoint arena ranges even though their serialized intervals look
  // disjoint.
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("x", "Placeholder"), DType::kF64, Shape{16}));
  def.nodes.push_back(MakeNode("l1", "Add", {"x", "x"}));
  def.nodes.push_back(MakeNode("l2", "Mul", {"l1", "l1"}));
  def.nodes.push_back(MakeNode("r1", "Sub", {"x", "x"}));
  def.nodes.push_back(MakeNode("r2", "Mul", {"r1", "r1"}));
  def.nodes.push_back(MakeNode("join", "Add", {"l2", "r2"}));
  def.nodes.push_back(MakeNode("out", "Sqrt", {"join"}));
  const LivenessAnalysis live = Live(def, {{"x"}, {"out"}, {}});
  const MemoryPlan plan = MemoryPlan::Plan(live);

  const analysis::PlannedTensor* l1 = plan.Find("l1", 0);
  const analysis::PlannedTensor* r1 = plan.Find("r1", 0);
  ASSERT_NE(l1, nullptr);
  ASSERT_NE(r1, nullptr);
  const bool overlap = l1->offset < r1->offset + r1->bytes &&
                       r1->offset < l1->offset + l1->bytes;
  EXPECT_FALSE(overlap) << "concurrent tensors share arena bytes";
}

// ---- lints ------------------------------------------------------------------

TEST(MemoryLintTest, GC018FiresOnlyOverBudget) {
  const wire::GraphDef def = ChainDef();
  const LivenessAnalysis live = Live(def, {{"x"}, {"c"}, {}});
  const MemoryPlan plan = MemoryPlan::Plan(live);
  ASSERT_GT(plan.static_peak_bytes(), 0);

  auto over = analysis::LintMemory(def, live, plan,
                                   plan.static_peak_bytes() - 1);
  ASSERT_NE(Find(over, "GC018"), nullptr);
  EXPECT_EQ(Find(over, "GC018")->severity, analysis::Severity::kError);

  auto fits = analysis::LintMemory(def, live, plan,
                                   plan.static_peak_bytes());
  EXPECT_EQ(Find(fits, "GC018"), nullptr);
  auto unbudgeted = analysis::LintMemory(def, live, plan, 0);
  EXPECT_EQ(Find(unbudgeted, "GC018"), nullptr);
}

TEST(MemoryLintTest, GC019RacingVariableOverwrite) {
  // read = Neg(v) consumes v's value; w overwrites v with no ordering
  // between read and w -> GC019. Adding the control edge silences it.
  wire::GraphDef def;
  def.nodes.push_back(
      Typed(MakeNode("v", "Variable"), DType::kF64, Shape{4}));
  def.nodes.push_back(
      Typed(MakeNode("init", "Placeholder"), DType::kF64, Shape{4}));
  def.nodes.push_back(MakeNode("read", "Neg", {"v"}));
  def.nodes.push_back(MakeNode(
      "w", "Assign", {"init"}, {{"var", wire::AttrValue::Str("v")}}));
  const AnalysisOptions opts{{"init"}, {"read"}, {"w"}};
  const LivenessAnalysis live = Live(def, opts);
  const MemoryPlan plan = MemoryPlan::Plan(live);
  auto lints = analysis::LintMemory(def, live, plan, 0);
  const Diagnostic* d = Find(lints, "GC019");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->node, "w");

  // Same graph with the write ordered after the read: no finding.
  def.nodes[3].inputs.push_back("^read");
  const LivenessAnalysis ordered = Live(def, opts);
  const MemoryPlan plan2 = MemoryPlan::Plan(ordered);
  EXPECT_EQ(Find(analysis::LintMemory(def, ordered, plan2, 0), "GC019"),
            nullptr);
}

// ---- runtime wiring ---------------------------------------------------------

TEST(MemplanRuntimeTest, ArenaExecutionBitIdenticalToPool) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{64}, "x");
  auto a = ops::Add(s, x, x);
  auto b = ops::Mul(s, a, a);
  auto c = ops::Sqrt(s, b);
  auto d = ops::Sub(s, c, a);

  // GraphCheck off skips the analysis the plan is built from: every output
  // comes from the pool.
  SessionOptions pool_opts;
  pool_opts.graph_check = GraphCheckMode::kOff;
  auto planned = rt.NewSession();
  auto pooled = rt.NewSession(pool_opts);

  // The planned session must actually compile an arena (otherwise this test
  // compares pool against pool).
  auto exe = planned->Prepare({"x"}, {d.name()});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  EXPECT_GT((*exe)->num_planned_nodes(), 0);
  EXPECT_GT((*exe)->arena_bytes(), 0);
  EXPECT_GT((*exe)->static_peak_bytes(), 0);

  std::vector<double> input(64);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = 0.25 * static_cast<double>(i) + 1.0;
  }
  const std::map<std::string, Tensor> feeds = {
      {"x", Tensor::FromVector(input)}};
  auto r1 = planned->Run(feeds, {d.name()});
  auto r2 = pooled->Run(feeds, {d.name()});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r1->size(), 1u);
  EXPECT_TRUE((*r1)[0].BitwiseEquals((*r2)[0]));
}

TEST(MemplanRuntimeTest, PlannedChainCostsTwoAllocationsPerStep) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{64}, "x");
  auto a = ops::Add(s, x, x);
  auto b = ops::Mul(s, a, a);
  auto c = ops::Sqrt(s, b);
  auto d = ops::Sub(s, c, a);

  auto sess = rt.NewSession();
  auto exe = sess->Prepare({"x"}, {d.name()});
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  ASSERT_EQ((*exe)->num_planned_nodes(), 3);  // a, b, c; not the fetched d

  const std::map<std::string, Tensor> feeds = {
      {"x", Tensor::FromVector(std::vector<double>(64, 1.5))}};
  auto allocs = [&rt] {
    int64_t n = 0;
    for (const auto& dev : rt.devices().devices()) {
      n += dev->allocator_stats()->allocs();
    }
    return n;
  };
  const int64_t before = allocs();
  constexpr int kSteps = 5;
  for (int i = 0; i < kSteps; ++i) {
    ASSERT_TRUE(sess->RunPrepared(**exe, feeds).ok());
  }
  // Per step: the arena block, plus the fetched output from the pool.
  EXPECT_EQ(allocs() - before, 2 * kSteps);
}

TEST(MemplanRuntimeTest, StaticPeakCoversMeasuredPeak) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto x = ops::Placeholder(s, DType::kF64, Shape{256}, "x");
  auto a = ops::Add(s, x, x);
  auto b = ops::Mul(s, a, a);
  auto c = ops::Sqrt(s, b);

  auto sess = rt.NewSession();
  auto exe = sess->Prepare({"x"}, {c.name()});
  ASSERT_TRUE(exe.ok());
  const int64_t static_peak = (*exe)->static_peak_bytes();
  ASSERT_GT(static_peak, 0);

  std::vector<double> input(256, 2.0);
  RunOptions opts;
  opts.step_memory_limit_bytes = 1 << 30;  // arm the limiter, never binds
  RunMetadata meta;
  auto r = sess->RunPrepared(**exe, {{"x", Tensor::FromVector(input)}}, opts,
                             &meta);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(meta.step_peak_bytes, 0);
  EXPECT_GE(static_peak, meta.step_peak_bytes);
}

TEST(MemplanRuntimeTest, GC018StrictRejectsBeforeAnyKernelRuns) {
  LocalRuntime rt(0);
  Scope s = rt.root_scope();
  auto v = ops::Variable(s, "v", DType::kF64, Shape{4});
  auto seed = ops::Const(s, Tensor::FromVector(std::vector<double>{1, 2, 3, 4}));
  auto init = ops::Assign(s, v, seed);
  auto bump = ops::AssignAdd(s, v, seed);

  // Initialize v through an unbudgeted, permissive session.
  auto setup = rt.NewSession();
  ASSERT_TRUE(setup->Run({}, {}, {init.name()}).ok());

  // Strict session with a budget far below the step's static peak: the
  // compile must fail with GC018 and the AssignAdd kernel must never run.
  SessionOptions strict;
  strict.graph_check = GraphCheckMode::kStrict;
  strict.step_memory_limit_bytes = 8;
  auto strict_sess = rt.NewSession(strict);
  auto r = strict_sess->Run({}, {}, {bump.name()});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kInvalidArgument);
  EXPECT_NE(r.status().message().find("GC018"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(strict_sess->nodes_executed(), 0);

  // v still holds the initial value: the rejected step had no side effects.
  auto read = setup->Run({}, {v.name()});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(
      (*read)[0].BitwiseEquals(Tensor::FromVector(std::vector<double>{1, 2, 3, 4})));
}

// ---- shape-fn coverage audit ------------------------------------------------

TEST(ShapeFnCoverageTest, EveryRegisteredOpHasAShapeStory) {
  // Every op in OpRegistry must have an inference fn or be explicitly
  // marked dynamic — otherwise its outputs silently stay unknown and the
  // memory planner quietly under-covers graphs using it. Adding an op
  // without deciding this fails here.
  const auto uncovered = analysis::ShapeFnRegistry::Global().UncoveredOps();
  EXPECT_TRUE(uncovered.empty()) << [&] {
    std::string msg = "ops without a shape fn or dynamic marking:";
    for (const auto& op : uncovered) msg += " " + op;
    return msg;
  }();
}

}  // namespace
}  // namespace tfhpc
