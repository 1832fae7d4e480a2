// Randomized property tests over subsystem invariants: executor vs a
// reference evaluator on random DAGs, flow-network work conservation,
// nodelist grammar round trips, and algebraic kernel identities.
#include <gtest/gtest.h>

#include <random>

#include "cluster/slurm.h"
#include "core/rng.h"
#include "graph/ops.h"
#include "kernels/gemm.h"
#include "optimizer/optimizer.h"
#include "runtime/session.h"
#include "sim/network.h"

namespace tfhpc {
namespace {

// ---- Random scalar DAGs: session result == reference interpreter ----------------

class RandomDagTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagTest, SessionMatchesReferenceEvaluator) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  std::uniform_real_distribution<double> val(-2, 2);
  std::uniform_int_distribution<int> op_pick(0, 2);

  Graph g;
  Scope s(&g);
  std::vector<Output> nodes;
  std::vector<double> reference;

  // Leaves.
  for (int i = 0; i < 4; ++i) {
    const double v = val(rng);
    nodes.push_back(ops::Const(s, Tensor::Scalar(v)));
    reference.push_back(v);
  }
  // Interior ops drawing random operands from anything built so far.
  for (int i = 0; i < 24; ++i) {
    std::uniform_int_distribution<size_t> operand(0, nodes.size() - 1);
    const size_t a = operand(rng);
    const size_t b = operand(rng);
    switch (op_pick(rng)) {
      case 0:
        nodes.push_back(ops::Add(s, nodes[a], nodes[b]));
        reference.push_back(reference[a] + reference[b]);
        break;
      case 1:
        nodes.push_back(ops::Mul(s, nodes[a], nodes[b]));
        reference.push_back(reference[a] * reference[b]);
        break;
      default:
        nodes.push_back(ops::Sub(s, nodes[a], nodes[b]));
        reference.push_back(reference[a] - reference[b]);
        break;
    }
  }

  LocalRuntime rt(1);
  for (const auto& nd : g.ToGraphDef().nodes) {
    ASSERT_TRUE(rt.graph().AddNode(nd).ok());
  }
  std::vector<std::string> fetches;
  for (const auto& n : nodes) fetches.push_back(n.name());
  auto r = rt.NewSession()->Run({}, fetches);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_NEAR((*r)[i].scalar<double>(), reference[i],
                1e-9 * std::max(1.0, std::abs(reference[i])))
        << "node " << i;
  }

  // Property extension: the optimized graph evaluates identically.
  optimizer::PipelineOptions popts;
  popts.level = optimizer::OptimizerLevel::kBasic;
  popts.fetches = {fetches.back()};
  auto opt = optimizer::RunPassPipeline(g.ToGraphDef(), popts);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  LocalRuntime rt2(0);
  for (const auto& nd : opt->graph.nodes) {
    ASSERT_TRUE(rt2.graph().AddNode(nd).ok());
  }
  auto r2 = rt2.NewSession()->Run({}, {fetches.back()});
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR((*r2)[0].scalar<double>(), reference.back(),
              1e-9 * std::max(1.0, std::abs(reference.back())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest, ::testing::Range(1, 11));

// ---- Flow network: work conservation --------------------------------------------

class FlowConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowConservationTest, SingleLinkIsWorkConserving) {
  // Whatever the arrival pattern, a single link at capacity C finishing
  // total B bytes with no idle gaps completes at exactly B / C.
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()));
  std::uniform_int_distribution<int64_t> size(1 << 10, 1 << 24);
  sim::Simulation sim;
  sim::FlowNetwork net(&sim);
  const double cap = 1e9;
  sim::LinkId l = net.AddLink("wire", cap);
  int64_t total = 0;
  double last_finish = 0;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    const int64_t bytes = size(rng);
    total += bytes;
    net.StartFlow({l}, bytes, [&] { last_finish = sim.now(); });
  }
  sim.Run();
  EXPECT_NEAR(last_finish, static_cast<double>(total) / cap,
              1e-6 * last_finish);
}

TEST_P(FlowConservationTest, MakespanBoundedByBusiestLink) {
  // Random flows over random 2-link paths: makespan >= max_l (bytes through
  // l / capacity_l), and every flow finishes.
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 77 + 5);
  sim::Simulation sim;
  sim::FlowNetwork net(&sim);
  std::vector<sim::LinkId> links;
  std::vector<double> caps;
  std::uniform_real_distribution<double> cap(0.5e9, 4e9);
  for (int i = 0; i < 5; ++i) {
    caps.push_back(cap(rng));
    links.push_back(net.AddLink("l" + std::to_string(i), caps.back()));
  }
  std::vector<double> through(links.size(), 0);
  std::uniform_int_distribution<size_t> pick(0, links.size() - 1);
  std::uniform_int_distribution<int64_t> size(1 << 16, 1 << 24);
  int finished = 0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    size_t a = pick(rng), b = pick(rng);
    if (a == b) b = (b + 1) % links.size();
    const int64_t bytes = size(rng);
    through[a] += static_cast<double>(bytes);
    through[b] += static_cast<double>(bytes);
    net.StartFlow({links[a], links[b]}, bytes, [&] { ++finished; });
  }
  sim.Run();
  EXPECT_EQ(finished, n);
  double lower_bound = 0;
  for (size_t i = 0; i < links.size(); ++i) {
    lower_bound = std::max(lower_bound, through[i] / caps[i]);
  }
  EXPECT_GE(sim.now() + 1e-9, lower_bound);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationTest, ::testing::Range(1, 9));

// ---- Slurm nodelist grammar round trips --------------------------------------------

class NodeListFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeListFuzzTest, GeneratedListsExpandToExpectedHosts) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 131);
  std::uniform_int_distribution<int> num_items(1, 4);
  std::uniform_int_distribution<int> lo_pick(0, 30);
  std::uniform_int_distribution<int> len_pick(1, 5);
  std::uniform_int_distribution<int> width_pick(1, 3);
  std::uniform_int_distribution<int> style(0, 2);

  std::string list;
  std::vector<std::string> expected;
  const int items = num_items(rng);
  for (int i = 0; i < items; ++i) {
    if (i) list += ",";
    const std::string prefix = "n" + std::to_string(i) + "x";
    const int kind = style(rng);
    if (kind == 0) {
      list += prefix;
      expected.push_back(prefix);
      continue;
    }
    const int lo = lo_pick(rng);
    const int len = len_pick(rng);
    const int width = width_pick(rng);
    auto pad = [&](int v) {
      std::string s = std::to_string(v);
      while (static_cast<int>(s.size()) < width) s.insert(0, 1, '0');
      return s;
    };
    if (kind == 1) {
      list += prefix + "[" + pad(lo) + "-" + pad(lo + len - 1) + "]";
    } else {
      list += prefix + "[";
      for (int k = 0; k < len; ++k) {
        if (k) list += ",";
        list += pad(lo + k);
      }
      list += "]";
    }
    for (int k = 0; k < len; ++k) expected.push_back(prefix + pad(lo + k));
  }

  auto hosts = cluster::ExpandNodeList(list);
  ASSERT_TRUE(hosts.ok()) << list;
  EXPECT_EQ(*hosts, expected) << list;
}

TEST_P(NodeListFuzzTest, GarbageNeverCrashes) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 977 + 13);
  const char alphabet[] = "abc019[],-";
  std::uniform_int_distribution<size_t> len(0, 20);
  std::uniform_int_distribution<size_t> pick(0, sizeof(alphabet) - 2);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    const size_t n = len(rng);
    for (size_t i = 0; i < n; ++i) input.push_back(alphabet[pick(rng)]);
    // Must return either hosts or an error — never crash or hang.
    auto r = cluster::ExpandNodeList(input);
    (void)r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeListFuzzTest, ::testing::Range(1, 6));

// ---- Kernel algebra ----------------------------------------------------------------

class GemmAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmAlgebraTest, AssociativityHolds) {
  // (A B) C == A (B C) within f64 round-off.
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 31);
  std::uniform_int_distribution<int64_t> dim(1, 24);
  const int64_t m = dim(rng), k = dim(rng), l = dim(rng), n = dim(rng);
  auto make = [&](int64_t r, int64_t c, uint64_t seed) {
    Tensor t(DType::kF64, Shape{r, c});
    FillUniform(t, seed, -1, 1);
    return t;
  };
  Tensor a = make(m, k, 1), b = make(k, l, 2), c = make(l, n, 3);
  std::vector<double> ab(static_cast<size_t>(m * l)), abc1(static_cast<size_t>(m * n));
  std::vector<double> bc(static_cast<size_t>(k * n)), abc2(static_cast<size_t>(m * n));
  blas::Gemm(a.data<double>().data(), b.data<double>().data(), ab.data(), m, l, k);
  blas::Gemm(ab.data(), c.data<double>().data(), abc1.data(), m, n, l);
  blas::Gemm(b.data<double>().data(), c.data<double>().data(), bc.data(), k, n, l);
  blas::Gemm(a.data<double>().data(), bc.data(), abc2.data(), m, n, k);
  for (size_t i = 0; i < abc1.size(); ++i) {
    EXPECT_NEAR(abc1[i], abc2[i], 1e-10 * static_cast<double>(k * l));
  }
}

TEST_P(GemmAlgebraTest, TransposeIdentityHolds) {
  // (A B)^T == B^T A^T, computed through session ops end to end.
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 97 + 7);
  std::uniform_int_distribution<int64_t> dim(1, 16);
  const int64_t m = dim(rng), k = dim(rng), n = dim(rng);
  Tensor a(DType::kF64, Shape{m, k});
  Tensor b(DType::kF64, Shape{k, n});
  FillUniform(a, 11, -1, 1);
  FillUniform(b, 12, -1, 1);

  LocalRuntime rt(1);
  Scope s = rt.root_scope();
  auto ca = ops::Const(s, a);
  auto cb = ops::Const(s, b);
  auto lhs = ops::Transpose(s, ops::MatMul(s, ca, cb));
  auto rhs = ops::MatMul(s, ops::Transpose(s, cb), ops::Transpose(s, ca));
  auto r = rt.NewSession()->Run({}, {lhs.name(), rhs.name()});
  ASSERT_TRUE(r.ok());
  const auto x = (*r)[0].data<double>();
  const auto y = (*r)[1].data<double>();
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], y[i], 1e-10 * static_cast<double>(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmAlgebraTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace tfhpc
