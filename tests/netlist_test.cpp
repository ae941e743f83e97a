#include "netlist/network.hpp"

#include <gtest/gtest.h>

#include "netlist/stats.hpp"
#include "netlist/topo.hpp"

namespace dvs {
namespace {

Network two_gate_net() {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_gate(tt_and(2), {a, b});
  const NodeId g2 = net.add_gate(tt_inv(), {g1});
  net.add_output("y", g2);
  return net;
}

TEST(Netlist, ConstructionBasics) {
  Network net = two_gate_net();
  EXPECT_EQ(net.inputs().size(), 2u);
  EXPECT_EQ(net.outputs().size(), 1u);
  EXPECT_EQ(net.num_gates(), 2);
  EXPECT_EQ(net.num_live_nodes(), 4);
  net.check();
}

TEST(Netlist, FaninFanoutSymmetry) {
  Network net = two_gate_net();
  net.for_each_node([&](const Node& n) {
    for (NodeId f : n.fanins) {
      const auto& fo = net.node(f).fanouts;
      EXPECT_NE(std::find(fo.begin(), fo.end(), n.id), fo.end());
    }
  });
}

TEST(Netlist, ReplaceFanin) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId g = net.add_gate(tt_and(2), {a, b});
  net.add_output("y", g);
  net.replace_fanin(g, a, c);
  EXPECT_EQ(net.node(g).fanins[0], c);
  EXPECT_TRUE(net.node(a).fanouts.empty());
  EXPECT_EQ(net.node(c).fanouts.size(), 1u);
  net.check();
}

TEST(Netlist, InsertBetweenMovesSelectedFanouts) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a});
  const NodeId u = net.add_gate(tt_inv(), {g});
  const NodeId v = net.add_gate(tt_inv(), {g});
  net.add_output("u", u);
  net.add_output("v", v);
  const NodeId mid = net.insert_between(g, {v}, {}, tt_buf(), -1, "buf");
  EXPECT_EQ(net.node(u).fanins[0], g);
  EXPECT_EQ(net.node(v).fanins[0], mid);
  EXPECT_EQ(net.node(mid).fanins[0], g);
  net.check();
}

TEST(Netlist, InsertBetweenReroutesPorts) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a});
  net.add_output("y", g);
  const NodeId mid = net.insert_between(g, {}, {0}, tt_buf(), -1, "buf");
  EXPECT_EQ(net.outputs()[0].driver, mid);
  net.check();
}

TEST(Netlist, ReplaceUses) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_gate(tt_inv(), {a});
  const NodeId g2 = net.add_gate(tt_inv(), {a});
  const NodeId g3 = net.add_gate(tt_and(2), {g1, b});
  net.add_output("y", g3);
  net.add_output("z", g1);
  net.replace_uses(g1, g2);
  EXPECT_FALSE(net.is_valid(g1));
  EXPECT_EQ(net.node(g3).fanins[0], g2);
  EXPECT_EQ(net.outputs()[1].driver, g2);
  net.check();
}

TEST(Netlist, ReplaceUsesAppendsReadersInPinOrder) {
  // The moved readers join the new node's fanout list after its own, in
  // the old node's list order, once per pin; topo_order walks that list.
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_gate(tt_inv(), {a});
  const NodeId g2 = net.add_gate(tt_and(2), {g1, g1});
  const NodeId g3 = net.add_gate(tt_and(2), {b, g1});
  const NodeId g4 = net.add_gate(tt_inv(), {b});
  net.add_output("y", g2);
  net.add_output("z", g3);
  net.add_output("w", g4);
  net.add_output("v", g1);
  net.replace_uses(g1, b);
  EXPECT_EQ(net.node(b).fanouts, (std::vector<NodeId>{g3, g4, g2, g2, g3}));
  EXPECT_EQ(net.node(g2).fanins, (std::vector<NodeId>{b, b}));
  EXPECT_EQ(net.node(g3).fanins, (std::vector<NodeId>{b, b}));
  EXPECT_TRUE(net.node(a).fanouts.empty());
  EXPECT_EQ(net.outputs()[3].driver, b);
  net.check();
}

TEST(Netlist, SweepDanglingCascades) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g1 = net.add_gate(tt_inv(), {a});
  const NodeId g2 = net.add_gate(tt_inv(), {g1});
  (void)g2;  // g2 dangles; removing it strands g1
  const NodeId g3 = net.add_gate(tt_inv(), {a});
  net.add_output("y", g3);
  EXPECT_EQ(net.sweep_dangling(), 2);
  EXPECT_EQ(net.num_gates(), 1);
  net.check();
}

TEST(Netlist, CompactRemapsIds) {
  Network net = two_gate_net();
  const NodeId extra = net.add_gate(tt_inv(), {net.inputs()[0]});
  (void)extra;
  net.sweep_dangling();
  const int live_before = net.num_live_nodes();
  net.compact();
  EXPECT_EQ(net.num_live_nodes(), live_before);
  EXPECT_EQ(net.size(), live_before);
  net.check();
}

TEST(Netlist, StatsReportShape) {
  const NetworkStats s = network_stats(two_gate_net());
  EXPECT_EQ(s.num_inputs, 2);
  EXPECT_EQ(s.num_outputs, 1);
  EXPECT_EQ(s.num_gates, 2);
  EXPECT_EQ(s.depth, 2);
  EXPECT_DOUBLE_EQ(s.avg_fanin, 1.5);
}

TEST(Netlist, TopoOrderRespectsEdges) {
  Network net = two_gate_net();
  const std::vector<NodeId> order = topo_order(net);
  std::vector<int> position(net.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i)
    position[order[i]] = static_cast<int>(i);
  net.for_each_node([&](const Node& n) {
    for (NodeId f : n.fanins) EXPECT_LT(position[f], position[n.id]);
  });
}

TEST(Netlist, LogicLevels) {
  Network net = two_gate_net();
  const std::vector<int> level = logic_levels(net);
  EXPECT_EQ(level[net.inputs()[0]], 0);
  EXPECT_EQ(logic_depth(net), 2);
}

TEST(Netlist, TransitiveCones) {
  Network net = two_gate_net();
  const NodeId po_driver = net.outputs()[0].driver;
  const auto fanin = transitive_fanin(net, {po_driver});
  net.for_each_node([&](const Node& n) { EXPECT_TRUE(fanin[n.id]); });
  const auto fanout = transitive_fanout(net, {net.inputs()[0]});
  EXPECT_TRUE(fanout[po_driver]);
}

// ---- Network::check catches every broken invariant ---------------------

Network chain_of_two() {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_gate(tt_nand(2), {a, b});
  const NodeId g2 = net.add_gate(tt_nand(2), {g1, a});
  net.add_output("y", g2);
  net.check();
  return net;
}

TEST(NetlistCheckDeathTest, MissingFanoutEntry) {
  Network net = chain_of_two();
  net.node(0).fanouts = {3};  // a is read by g1 and g2
  EXPECT_DEATH(net.check(), "violation");
}

TEST(NetlistCheckDeathTest, ExtraFanoutEntry) {
  Network net = chain_of_two();
  net.node(1).fanouts.push_back(2);  // b is read by g1 once
  EXPECT_DEATH(net.check(), "violation");
}

TEST(NetlistCheckDeathTest, FaninReadOnTwoPinsListedOnce) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_and(2), {a, a});
  net.add_output("y", g);
  net.check();
  net.node(a).fanouts.pop_back();
  EXPECT_DEATH(net.check(), "violation");
}

TEST(NetlistCheckDeathTest, DeadFanin) {
  Network net = chain_of_two();
  net.node(2).dead = true;  // g2 still reads g1
  EXPECT_DEATH(net.check(), "violation");
}

TEST(NetlistCheckDeathTest, Cycle) {
  Network net = chain_of_two();
  // g1 reads g2 instead of b, with both fanout lists kept symmetric.
  net.node(2).fanins[1] = 3;
  net.node(1).fanouts.clear();
  net.node(3).fanouts.push_back(2);
  EXPECT_DEATH(net.check(), "violation");
}

}  // namespace
}  // namespace dvs
