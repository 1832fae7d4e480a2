// Unit tests for src/graph: op registry, graph construction, builder API,
// device names, optimization passes.
#include <gtest/gtest.h>

#include "core/device_name.h"
#include "distrib/client.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "graph/passes.h"
#include "optimizer/optimizer.h"

namespace tfhpc {
namespace {

// ---- DeviceName ---------------------------------------------------------------

TEST(DeviceNameTest, ParseFull) {
  auto d = DeviceName::Parse("/job:worker/task:1/gpu:0");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->job, "worker");
  EXPECT_EQ(d->task, 1);
  EXPECT_EQ(d->type, "gpu");
  EXPECT_EQ(d->index, 0);
  EXPECT_TRUE(d->fully_specified());
  EXPECT_EQ(d->ToString(), "/job:worker/task:1/gpu:0");
}

TEST(DeviceNameTest, ParsePartial) {
  auto d = DeviceName::Parse("/gpu:2");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->job.empty());
  EXPECT_EQ(d->task, -1);
  EXPECT_EQ(d->type, "gpu");
  EXPECT_EQ(d->index, 2);
  EXPECT_FALSE(d->fully_specified());
}

TEST(DeviceNameTest, ParseLongForm) {
  auto d = DeviceName::Parse("/job:ps/task:0/device:GPU:1");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->type, "gpu");
  EXPECT_EQ(d->index, 1);
}

TEST(DeviceNameTest, ParseEmptyIsUnspecified) {
  auto d = DeviceName::Parse("");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->fully_specified());
}

TEST(DeviceNameTest, ParseErrors) {
  EXPECT_FALSE(DeviceName::Parse("/bogus:0").ok());
  EXPECT_FALSE(DeviceName::Parse("/gpu:x").ok());
  EXPECT_FALSE(DeviceName::Parse("/gpu:-1").ok());
  EXPECT_FALSE(DeviceName::Parse("/job:").ok());
  EXPECT_FALSE(DeviceName::Parse("/noslash").ok());
}

TEST(DeviceNameTest, MergedWithFillsGaps) {
  auto partial = DeviceName::Parse("/gpu:1").value();
  DeviceName defaults{.job = "worker", .task = 3, .type = "cpu", .index = 0};
  DeviceName merged = partial.MergedWith(defaults);
  EXPECT_EQ(merged.job, "worker");
  EXPECT_EQ(merged.task, 3);
  EXPECT_EQ(merged.type, "gpu");  // explicit wins
  EXPECT_EQ(merged.index, 1);
}

TEST(DeviceNameTest, Matches) {
  auto full = DeviceName::Parse("/job:worker/task:1/gpu:0").value();
  EXPECT_TRUE(full.Matches(DeviceName::Parse("/gpu:0").value()));
  EXPECT_TRUE(full.Matches(DeviceName::Parse("").value()));
  EXPECT_TRUE(full.Matches(DeviceName::Parse("/job:worker").value()));
  EXPECT_FALSE(full.Matches(DeviceName::Parse("/job:ps").value()));
  EXPECT_FALSE(full.Matches(DeviceName::Parse("/gpu:1").value()));
  EXPECT_FALSE(full.Matches(DeviceName::Parse("/cpu:0").value()));
}

// ---- OpRegistry ------------------------------------------------------------------

TEST(OpRegistryTest, CoreOpsRegistered) {
  for (const char* op : {"Const", "MatMul", "Add", "Variable", "AssignAdd",
                         "QueueEnqueue", "QueueDequeue", "FFT", "Dot"}) {
    EXPECT_NE(OpRegistry::Global().Lookup(op), nullptr) << op;
  }
  EXPECT_EQ(OpRegistry::Global().Lookup("NotAnOp"), nullptr);
}

TEST(OpRegistryTest, StatefulAndBlockingFlags) {
  EXPECT_TRUE(OpRegistry::Global().Lookup("Variable")->is_stateful);
  EXPECT_FALSE(OpRegistry::Global().Lookup("MatMul")->is_stateful);
  EXPECT_TRUE(OpRegistry::Global().Lookup("QueueDequeue")->is_blocking);
  EXPECT_FALSE(OpRegistry::Global().Lookup("Add")->is_blocking);
}

TEST(OpRegistryTest, DuplicateRegistrationRejected) {
  EXPECT_EQ(OpRegistry::Global().Register(OpDef{.name = "Const"}).code(),
            Code::kAlreadyExists);
  EXPECT_EQ(OpRegistry::Global().Register(OpDef{}).code(),
            Code::kInvalidArgument);
}

// ---- Graph construction -------------------------------------------------------------

wire::NodeDef MakeConstDef(const std::string& name, double v) {
  wire::NodeDef def;
  def.name = name;
  def.op = "Const";
  def.attrs["value"] = wire::AttrValue::Str(
      wire::SerializeTensor(Tensor::Scalar(v)));
  def.attrs["dtype"] = wire::AttrValue::Type(DType::kF64);
  return def;
}

TEST(GraphTest, AddAndFind) {
  Graph g;
  auto r = g.AddNode(MakeConstDef("c1", 1.0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->name(), "c1");
  EXPECT_EQ(g.FindNode("c1"), *r);
  EXPECT_EQ(g.FindNode("nope"), nullptr);
  EXPECT_EQ(g.num_nodes(), 1);
}

TEST(GraphTest, DuplicateNameRejected) {
  Graph g;
  ASSERT_TRUE(g.AddNode(MakeConstDef("c", 1.0)).ok());
  EXPECT_EQ(g.AddNode(MakeConstDef("c", 2.0)).status().code(),
            Code::kAlreadyExists);
}

TEST(GraphTest, UnknownOpRejected) {
  Graph g;
  wire::NodeDef def;
  def.name = "x";
  def.op = "Bogus";
  EXPECT_EQ(g.AddNode(def).status().code(), Code::kNotFound);
}

TEST(GraphTest, MissingInputRejected) {
  Graph g;
  wire::NodeDef def;
  def.name = "add";
  def.op = "Add";
  def.inputs = {"a", "b"};
  EXPECT_EQ(g.AddNode(def).status().code(), Code::kNotFound);
}

TEST(GraphTest, ArityChecked) {
  Graph g;
  ASSERT_TRUE(g.AddNode(MakeConstDef("a", 1.0)).ok());
  wire::NodeDef def;
  def.name = "add";
  def.op = "Add";
  def.inputs = {"a"};  // Add needs 2
  EXPECT_EQ(g.AddNode(def).status().code(), Code::kInvalidArgument);
}

TEST(GraphTest, ControlInputsParsed) {
  Graph g;
  ASSERT_TRUE(g.AddNode(MakeConstDef("a", 1.0)).ok());
  ASSERT_TRUE(g.AddNode(MakeConstDef("b", 2.0)).ok());
  wire::NodeDef def;
  def.name = "add";
  def.op = "Add";
  def.inputs = {"a", "b", "^a"};
  auto r = g.AddNode(def);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_data_inputs(), 2);
  ASSERT_EQ((*r)->in_edges().size(), 3u);
  EXPECT_TRUE((*r)->in_edges()[2].control);
}

TEST(GraphTest, NamesThatParseAsTensorReferencesAreRejected) {
  // "a:0" would shadow output 0 of a node "a", and "^a" reads as a control
  // input: both are refused wherever a node enters a graph.
  for (const std::string bad : {"a:0", "b:c", "^a"}) {
    Graph g;
    auto r = g.AddNode(MakeConstDef(bad, 1.0));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), Code::kInvalidArgument) << bad;
    EXPECT_EQ(g.num_nodes(), 0);

    wire::GraphDef def;
    def.nodes.push_back(MakeConstDef(bad, 1.0));
    auto from_def = Graph::FromGraphDef(def);
    ASSERT_FALSE(from_def.ok()) << bad;
    EXPECT_EQ(from_def.status().code(), Code::kInvalidArgument) << bad;
  }

  // The same refusal reaches a GraphDef that arrives over the wire.
  wire::ClusterDef cluster_def;
  cluster_def.jobs = {wire::JobDef{"worker", {"names-w0:1"}}};
  auto cluster = distrib::ClusterSpec::Create(cluster_def);
  ASSERT_TRUE(cluster.ok());
  distrib::InProcessRouter router;
  auto server = distrib::Server::Create(
      distrib::ServerDef{.cluster = *cluster,
                         .job = "worker",
                         .serving = {},
                         .alloc_faults = {}},
      &router);
  ASSERT_TRUE(server.ok());
  wire::GraphDef wire_def;
  wire_def.nodes.push_back(MakeConstDef("a", 1.0));
  wire_def.nodes.push_back(MakeConstDef("a:0", 2.0));
  const Status st = distrib::RemoteTask(&router, "names-w0:1",
                                        distrib::WireProtocol::kGrpc)
                        .ExtendGraph(wire_def);
  EXPECT_EQ(st.code(), Code::kInvalidArgument) << st.ToString();
  EXPECT_EQ((*server)->graph().FindNode("a:0"), nullptr);
}

TEST(GraphTest, ParseTensorRefSplitsAtTheFirstColon) {
  const TensorRef plain = ParseTensorRef("a");
  EXPECT_EQ(plain.name, "a");
  EXPECT_EQ(plain.slot, 0);
  EXPECT_FALSE(plain.control);
  const TensorRef slot = ParseTensorRef("scope/a:12");
  EXPECT_EQ(slot.name, "scope/a");
  EXPECT_EQ(slot.slot, 12);
  const TensorRef control = ParseTensorRef("^a");
  EXPECT_EQ(control.name, "a");
  EXPECT_TRUE(control.control);
  // AddNode refuses each malformed reference as an input; a negative slot
  // must never reach an edge.
  Graph g;
  ASSERT_TRUE(g.AddNode(MakeConstDef("a", 1.0)).ok());
  for (const char* malformed : {"a:", "a:x", "a:1x", "a:-1", "^a:1",
                                "a:99999999999"}) {
    EXPECT_EQ(ParseTensorRef(malformed).slot, -1) << malformed;
    wire::NodeDef neg;
    neg.name = "neg";
    neg.op = "Neg";
    neg.inputs = {malformed};
    EXPECT_EQ(g.AddNode(neg).status().code(), Code::kInvalidArgument)
        << malformed;
  }
}

TEST(GraphTest, ReachableToComputesClosure) {
  // x -> y -> z -> w, a control edge u -> z, and an orphan.
  Graph g;
  Scope s(&g);
  Node* x = ops::Const(s, Tensor::Scalar(1.0), "x").node;
  Node* y = s.AddNode("Neg", {"x"}, {}, "y");
  Node* u = ops::Const(s, Tensor::Scalar(2.0), "u").node;
  Node* z = s.AddNode("Neg", {"y", "^u"}, {}, "z");
  Node* w = s.AddNode("Neg", {"z"}, {}, "w");
  ops::Const(s, Tensor::Scalar(9.0), "orphan");
  auto ids = [](std::initializer_list<const Node*> nodes) {
    std::vector<int> v;
    for (const Node* n : nodes) v.push_back(n->id());
    return v;
  };

  // Ids ascend; data and control inputs are walked; the orphan is not.
  auto r = g.ReachableTo({"w"}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ids({x, y, u, z, w}));
  // A root may name an output slot.
  r = g.ReachableTo({"z:0"}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ids({x, y, u, z}));

  // A cut node is in the closure; its ancestors are not.
  r = g.ReachableTo({"w"}, {"z"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ids({z, w}));
  // A cut further up trims only what lies behind it.
  r = g.ReachableTo({"w"}, {"y"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ids({y, u, z, w}));
  // A cut root keeps only itself, and cuts off the closure change nothing.
  r = g.ReachableTo({"w"}, {"w"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ids({w}));
  r = g.ReachableTo({"y"}, {"z", "not-a-node"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ids({x, y}));

  // A malformed root is kInvalidArgument; an unknown one is kNotFound.
  EXPECT_EQ(g.ReachableTo({"w:x"}, {}).status().code(),
            Code::kInvalidArgument);
  EXPECT_EQ(g.ReachableTo({"nope"}, {}).status().code(), Code::kNotFound);
}

TEST(GraphTest, UniqueNameGeneratesFresh) {
  Graph g;
  Scope s(&g);
  ops::Const(s, Tensor::Scalar(1.0), "x");  // takes "x"
  // Subsequent probes must never collide with the taken name.
  const std::string n1 = g.UniqueName("x");
  const std::string n2 = g.UniqueName("x");
  EXPECT_NE(n1, "x");
  EXPECT_NE(n2, "x");
  EXPECT_NE(n1, n2);
  // Builder calls produce distinct node names automatically.
  auto a = ops::Const(s, Tensor::Scalar(2.0), "x");
  EXPECT_NE(a.node->name(), "x");
}

TEST(GraphTest, GraphDefRoundTrip) {
  Graph g;
  Scope s(&g);
  auto a = ops::RandomUniform(s.WithDevice("/cpu:0"), Shape{3, 3}, DType::kF32, 1);
  auto b = ops::RandomUniform(s.WithDevice("/cpu:0"), Shape{3, 3}, DType::kF32, 2);
  ops::MatMul(s.WithDevice("/gpu:0"), a, b);

  wire::GraphDef def = g.ToGraphDef();
  auto g2 = Graph::FromGraphDef(def);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ((*g2)->num_nodes(), 3);
  const Node* mm = (*g2)->FindNode("MatMul");
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->requested_device(), "/gpu:0");
  EXPECT_EQ(mm->num_data_inputs(), 2);
}

// ---- Builder API -----------------------------------------------------------------

TEST(ScopeTest, DeviceAppliesToNewNodes) {
  Graph g;
  Scope root(&g);
  auto gpu = root.WithDevice("/gpu:1");
  auto c = ops::Const(gpu, Tensor::Scalar(1.0));
  EXPECT_EQ(c.node->requested_device(), "/gpu:1");
  auto c2 = ops::Const(root, Tensor::Scalar(1.0));
  EXPECT_TRUE(c2.node->requested_device().empty());
}

TEST(ScopeTest, NamePrefixNests) {
  Graph g;
  Scope root(&g);
  auto outer = root.WithNamePrefix("cg");
  auto inner = outer.WithNamePrefix("iter");
  auto c = ops::Const(inner, Tensor::Scalar(1.0), "x");
  EXPECT_EQ(c.node->name(), "cg/iter/x");
}

TEST(OpsTest, VariableAssignWiring) {
  Graph g;
  Scope s(&g);
  auto v = ops::Variable(s, "counter", DType::kF64, Shape{});
  auto inc = ops::AssignAdd(s, v, ops::Const(s, Tensor::Scalar(1.0)));
  EXPECT_EQ(inc.node->op(), "AssignAdd");
  EXPECT_EQ(inc.node->AttrString("var").value(), "counter");
}

TEST(OpsTest, OutputNameIncludesSlot) {
  Graph g;
  Scope s(&g);
  auto c = ops::Const(s, Tensor::Scalar(1.0), "k");
  EXPECT_EQ(c.name(), "k");
  Output slot1{c.node, 1};
  EXPECT_EQ(slot1.name(), "k:1");
}

TEST(OpsTest, QueueOpsCarryQueueAttr) {
  Graph g;
  Scope s(&g);
  auto v = ops::Const(s, Tensor::Scalar(5.0));
  auto enq = ops::QueueEnqueue(s, "q0", v, 16);
  auto deq = ops::QueueDequeue(s, "q0");
  EXPECT_EQ(enq.node->AttrString("queue").value(), "q0");
  EXPECT_EQ(enq.node->AttrInt("capacity").value(), 16);
  EXPECT_EQ(deq.node->AttrString("queue").value(), "q0");
}

// ---- Passes -------------------------------------------------------------------------

// Pruning is the optimizer pipeline's dead-node pass; these run it at
// kBasic with the target as the fetch.
Result<optimizer::PipelineResult> PruneToFetch(const Graph& g,
                                               const std::string& fetch) {
  optimizer::PipelineOptions opts;
  opts.level = optimizer::OptimizerLevel::kBasic;
  opts.fetches = {fetch};
  return optimizer::RunPassPipeline(g.ToGraphDef(), opts);
}

TEST(PassesTest, PruneRemovesUnreachable) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Scalar(1.0), "a");
  auto b = ops::Const(s, Tensor::Scalar(2.0), "b");
  auto c = ops::Add(s, a, b);
  ops::Const(s, Tensor::Scalar(3.0), "dead1");
  ops::RandomUniform(s, Shape{2}, DType::kF32, 7);  // stateful but unused

  auto pruned = PruneToFetch(g, c.node->name());
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  // Constant folding changes the node count, so check what survives.
  std::set<std::string> names, ops_left;
  for (const auto& nd : pruned->graph.nodes) {
    names.insert(nd.name);
    ops_left.insert(nd.op);
  }
  EXPECT_EQ(names.count(c.node->name()), 1u) << "the target stays";
  EXPECT_EQ(names.count("dead1"), 0u);
  EXPECT_EQ(ops_left.count("RandomUniform"), 0u);
}

TEST(PassesTest, PruneUnknownTargetFails) {
  Graph g;
  Scope s(&g);
  ops::Const(s, Tensor::Scalar(1.0), "a");
  EXPECT_FALSE(PruneToFetch(g, "ghost").ok());
}

TEST(PassesTest, CseMergesIdenticalPureNodes) {
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Scalar(1.0), "a");
  auto b = ops::Const(s, Tensor::Scalar(1.0), "b");  // identical to a
  auto add = ops::Add(s, a, b);
  (void)add;

  auto out = CommonSubexpressionElimination(g.ToGraphDef(), /*keep=*/{});
  ASSERT_TRUE(out.ok());
  // b merged into a; Add survives with both inputs remapped to a.
  ASSERT_EQ(out->nodes.size(), 2u);
  const auto& add_def = out->nodes[1];
  EXPECT_EQ(add_def.op, "Add");
  EXPECT_EQ(add_def.inputs[0], "a");
  EXPECT_EQ(add_def.inputs[1], "a");
}

TEST(PassesTest, CseChainsThroughLayers) {
  // Two identical Add trees must collapse into one.
  Graph g;
  Scope s(&g);
  auto a = ops::Const(s, Tensor::Scalar(1.0), "a");
  auto x = ops::Add(s, a, a);
  auto y = ops::Add(s, a, a);  // duplicate of x
  auto z = ops::Mul(s, x, y);
  (void)z;
  auto out = CommonSubexpressionElimination(g.ToGraphDef(), /*keep=*/{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->nodes.size(), 3u);  // a, one Add, Mul
  const auto& mul = out->nodes.back();
  EXPECT_EQ(mul.inputs[0], mul.inputs[1]);
}

TEST(PassesTest, CseDoesNotMergeStatefulOps) {
  Graph g;
  Scope s(&g);
  ops::RandomUniform(s, Shape{4}, DType::kF32, 1);
  ops::RandomUniform(s, Shape{4}, DType::kF32, 1);  // same attrs, stateful
  auto out = CommonSubexpressionElimination(g.ToGraphDef(), /*keep=*/{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->nodes.size(), 2u);
}

TEST(PassesTest, CseRespectsDevices) {
  Graph g;
  Scope s(&g);
  ops::Const(s.WithDevice("/cpu:0"), Tensor::Scalar(1.0), "a");
  ops::Const(s.WithDevice("/gpu:0"), Tensor::Scalar(1.0), "b");
  auto out = CommonSubexpressionElimination(g.ToGraphDef(), /*keep=*/{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->nodes.size(), 2u);  // different devices: kept apart
}

TEST(PassesTest, StatsCountNodesEdgesStateful) {
  Graph g;
  Scope s(&g);
  auto v = ops::Variable(s, "v", DType::kF64, Shape{});
  auto c = ops::Const(s, Tensor::Scalar(1.0));
  ops::AssignAdd(s, v, c);
  auto stats = ComputeStats(g.ToGraphDef());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_nodes, 3);
  EXPECT_EQ(stats->num_edges, 1);
  EXPECT_EQ(stats->num_stateful, 2);  // Variable + AssignAdd
}

}  // namespace
}  // namespace tfhpc
