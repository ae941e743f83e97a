#include "graph/reachability.hpp"

#include <gtest/gtest.h>

#include "netlist/topo.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

TEST(Reachability, Reflexive) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a});
  net.add_output("y", g);
  const Reachability reach(net);
  EXPECT_TRUE(reach.reaches(a, a));
  EXPECT_TRUE(reach.reaches(a, g));
  EXPECT_FALSE(reach.reaches(g, a));
  EXPECT_TRUE(reach.comparable(a, g));
}

class ReachabilityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReachabilityPropertyTest, MatchesTransitiveFanout) {
  Rng rng(GetParam());
  Network net("r");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i)
    nodes.push_back(net.add_input(std::string("i").append(std::to_string(i))));
  for (int g = 0; g < 40; ++g) {
    const NodeId f0 = nodes[rng.next_below(nodes.size())];
    NodeId f1 = nodes[rng.next_below(nodes.size())];
    if (f1 == f0) f1 = nodes[0] == f0 ? nodes[1] : nodes[0];
    nodes.push_back(net.add_gate(tt_nand(2), {f0, f1}));
  }
  net.add_output("y", nodes.back());

  const Reachability reach(net);
  for (NodeId from : nodes) {
    const auto cone = transitive_fanout(net, {from});
    for (NodeId to : nodes)
      EXPECT_EQ(reach.reaches(from, to), cone[to] != 0)
          << from << "->" << to;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityPropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace dvs
