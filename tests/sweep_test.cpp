#include "synth/sweep.hpp"

#include <gtest/gtest.h>

#include "sim/bitsim.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

TEST(Sweep, FoldsConstantInputs) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId k = net.add_constant(true);
  const NodeId g = net.add_gate(tt_and(2), {a, k});  // == a
  net.add_output("y", g);
  const SweepStats stats = sweep_network(net);
  EXPECT_GT(stats.constants_folded, 0);
  // The whole thing reduces to the input driving the port.
  EXPECT_EQ(net.outputs()[0].driver, a);
  EXPECT_EQ(net.num_gates(), 0);
}

TEST(Sweep, RemovesBuffersAndInverterPairs) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b1 = net.add_gate(tt_buf(), {a});
  const NodeId i1 = net.add_gate(tt_inv(), {b1});
  const NodeId i2 = net.add_gate(tt_inv(), {i1});
  net.add_output("y", i2);
  const SweepStats stats = sweep_network(net);
  EXPECT_GT(stats.buffers_removed + stats.inverter_pairs_removed, 0);
  EXPECT_EQ(net.outputs()[0].driver, a);
}

TEST(Sweep, RemovesDanglingLogic) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId used = net.add_gate(tt_inv(), {a});
  const NodeId dead1 = net.add_gate(tt_inv(), {a});
  const NodeId dead2 = net.add_gate(tt_inv(), {dead1});
  (void)dead2;
  net.add_output("y", used);
  const SweepStats stats = sweep_network(net);
  // dead2 is INV(INV(a)) and may fall to the inverter-pair rule before
  // the dangling sweep reaches it; either way both dead gates go.
  EXPECT_EQ(stats.dangling_removed + stats.inverter_pairs_removed, 2);
  EXPECT_EQ(net.num_gates(), 1);
}

TEST(Sweep, ConstantZeroAndGate) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId k = net.add_constant(false);
  const NodeId g = net.add_gate(tt_and(2), {a, k});  // == 0
  const NodeId h = net.add_gate(tt_or(2), {g, a});   // == a
  net.add_output("y", h);
  sweep_network(net);
  EXPECT_EQ(net.outputs()[0].driver, a);
}

class SweepPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SweepPropertyTest, PreservesFunctionality) {
  Rng rng(4000 + GetParam());
  Network net("r");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i)
    nodes.push_back(net.add_input(std::string("i").append(std::to_string(i))));
  nodes.push_back(net.add_constant(rng.next_bool()));
  for (int g = 0; g < 14; ++g) {
    const int arity = rng.next_int(1, 3);
    std::vector<NodeId> fanins;
    for (int k = 0; k < arity; ++k) {
      NodeId f;
      do {
        f = nodes[rng.next_below(nodes.size())];
      } while (std::find(fanins.begin(), fanins.end(), f) !=
               fanins.end());
      fanins.push_back(f);
    }
    TruthTable tt{rng.next_u64(), arity};
    tt.bits &= tt.mask();
    nodes.push_back(net.add_gate(tt, fanins));
  }
  net.add_output("y", nodes.back());

  Network original = net;  // deep copy before sweeping
  sweep_network(net);
  BitSimulator s1(original), s2(net);
  for (std::uint32_t p = 0; p < 16; ++p) {
    std::vector<bool> in;
    for (int i = 0; i < 4; ++i) in.push_back((p >> i) & 1u);
    EXPECT_EQ(s1.evaluate(in), s2.evaluate(in)) << "pattern " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepPropertyTest, ::testing::Range(0, 60));

}  // namespace
}  // namespace dvs
