#include "graph/flow_network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.hpp"

namespace dvs {
namespace {

FlowNetwork diamond() {
  FlowNetwork net;
  net.add_vertices(4);  // 0=s, 3=t
  net.add_arc(0, 1, 3.0);
  net.add_arc(0, 2, 2.0);
  net.add_arc(1, 3, 2.0);
  net.add_arc(2, 3, 3.0);
  net.add_arc(1, 2, 1.0);
  return net;
}

TEST(MaxFlow, DiamondKnownValue) {
  FlowNetwork d1 = diamond();
  EXPECT_NEAR(dinic_max_flow(d1, 0, 3), 5.0, 1e-9);
  FlowNetwork d2 = diamond();
  EXPECT_NEAR(edmonds_karp_max_flow(d2, 0, 3), 5.0, 1e-9);
}

TEST(MaxFlow, DisconnectedIsZero) {
  FlowNetwork net;
  net.add_vertices(3);
  net.add_arc(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow(net, 0, 2), 0.0);
}

TEST(MaxFlow, ResidualReachabilityGivesMinCut) {
  FlowNetwork net = diamond();
  const double value = dinic_max_flow(net, 0, 3);
  const std::vector<char> side = net.residual_reachable(0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[3]);
  // Cut capacity across the partition equals the flow value.  Recompute
  // from a fresh network (caps there are original).
  FlowNetwork fresh = diamond();
  double cut = 0.0;
  for (int v = 0; v < fresh.num_vertices(); ++v) {
    if (!side[v]) continue;
    for (const auto& arc : fresh.arcs_of(v))
      if (!side[arc.to]) cut += arc.cap;
  }
  EXPECT_NEAR(cut, value, 1e-9);
}

TEST(MaxFlow, FlowOnTracksPushedFlow) {
  FlowNetwork net;
  net.add_vertices(2);
  const int arc = net.add_arc(0, 1, 4.0);
  EXPECT_NEAR(dinic_max_flow(net, 0, 1), 4.0, 1e-9);
  EXPECT_NEAR(net.flow_on(0, arc), 4.0, 1e-9);
}

/// The CSR layout keeps each vertex's arcs in insertion order: add_arc
/// appends the arc to `from`'s list, then its twin to `to`'s list, so a
/// self-loop's twin takes the slot right after the arc.
TEST(MaxFlow, ArcsKeepInsertionOrderAndPairedRevs) {
  FlowNetwork net;
  net.add_vertices(3);
  EXPECT_EQ(net.add_arc(0, 1, 2.0), 0);
  EXPECT_EQ(net.add_arc(0, 1, 3.0), 1);  // parallel arc
  EXPECT_EQ(net.add_arc(1, 1, 4.0), 2);  // self-loop: twin at slot 3
  EXPECT_EQ(net.add_arc(1, 2, 1.0), 4);
  EXPECT_EQ(net.add_arc(2, 0, 5.0), 1);

  struct Expect {
    int to;
    double cap;
    int rev;
  };
  const std::vector<std::vector<Expect>> expected = {
      {{1, 2.0, 0}, {1, 3.0, 1}, {2, 0.0, 1}},
      {{0, 0.0, 0}, {0, 0.0, 1}, {1, 4.0, 3}, {1, 0.0, 2}, {2, 1.0, 0}},
      {{1, 0.0, 4}, {0, 5.0, 2}},
  };
  for (int v = 0; v < net.num_vertices(); ++v) {
    const auto arcs = net.arcs_of(v);
    ASSERT_EQ(arcs.size(), expected[v].size()) << "vertex " << v;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      EXPECT_EQ(arcs[i].to, expected[v][i].to) << v << "/" << i;
      EXPECT_EQ(arcs[i].cap, expected[v][i].cap) << v << "/" << i;
      EXPECT_EQ(arcs[i].rev, expected[v][i].rev) << v << "/" << i;
      // Every twin points back at its arc.
      const FlowNetwork::Arc& twin = net.arcs_of(arcs[i].to)[arcs[i].rev];
      EXPECT_EQ(twin.to, v) << v << "/" << i;
      EXPECT_EQ(twin.rev, static_cast<int>(i)) << v << "/" << i;
    }
  }
}

TEST(MaxFlow, FlowsAndCutSideMatchHandComputation) {
  // 0 -> 1 -> {2, 3} -> 4 with the bottleneck in the middle: the max
  // flow is 3 and every arc's flow is forced.
  FlowNetwork net;
  net.add_vertices(5);
  const int a01 = net.add_arc(0, 1, 5.0);
  const int a12 = net.add_arc(1, 2, 2.0);
  const int a13 = net.add_arc(1, 3, 1.0);
  const int a24 = net.add_arc(2, 4, 4.0);
  const int a34 = net.add_arc(3, 4, 4.0);
  EXPECT_EQ(dinic_max_flow(net, 0, 4), 3.0);
  EXPECT_EQ(net.flow_on(0, a01), 3.0);
  EXPECT_EQ(net.flow_on(1, a12), 2.0);
  EXPECT_EQ(net.flow_on(1, a13), 1.0);
  EXPECT_EQ(net.flow_on(2, a24), 2.0);
  EXPECT_EQ(net.flow_on(3, a34), 1.0);
  EXPECT_EQ(net.residual_reachable(0),
            (std::vector<char>{1, 1, 0, 0, 0}));
}

TEST(MaxFlowDeathTest, GrowingAfterTheFirstSolveIsAContractViolation) {
  FlowNetwork net = diamond();
  dinic_max_flow(net, 0, 3);
  EXPECT_DEATH(net.add_arc(0, 3, 1.0), "Precondition violation");
  EXPECT_DEATH(net.add_vertex(), "Precondition violation");
  EXPECT_DEATH(net.add_vertices(2), "Precondition violation");
}

/// Property: Dinic and Edmonds-Karp agree on random graphs.
class RandomFlowTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowTest, EnginesAgree) {
  Rng rng(GetParam());
  const int n = 2 + rng.next_int(2, 10);
  FlowNetwork a, b;
  a.add_vertices(n);
  b.add_vertices(n);
  const int edges = rng.next_int(n, 4 * n);
  for (int e = 0; e < edges; ++e) {
    const int u = rng.next_int(0, n - 1);
    const int v = rng.next_int(0, n - 1);
    if (u == v) continue;
    const double cap = 0.5 + rng.next_double() * 10.0;
    a.add_arc(u, v, cap);
    b.add_arc(u, v, cap);
  }
  const double fa = dinic_max_flow(a, 0, n - 1);
  const double fb = edmonds_karp_max_flow(b, 0, n - 1);
  EXPECT_NEAR(fa, fb, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowTest, ::testing::Range(1, 41));

}  // namespace
}  // namespace dvs
