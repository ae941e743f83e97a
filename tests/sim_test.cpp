#include "sim/bitsim.hpp"

#include <gtest/gtest.h>

#include "library/library.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

/// Every library cell, simulated as a single-gate network, must agree
/// with its truth table on every input pattern.
class CellSimTest : public ::testing::TestWithParam<int> {};

TEST_P(CellSimTest, MatchesTruthTable) {
  static const Library lib = build_compass_library();
  const Cell& cell = lib.cell(GetParam());
  Network net("cell");
  std::vector<NodeId> pis;
  for (int i = 0; i < cell.num_inputs(); ++i)
    pis.push_back(net.add_input(std::string("i").append(std::to_string(i))));
  const NodeId g = net.add_gate(cell.function, pis, GetParam());
  net.add_output("y", g);
  BitSimulator sim(net);
  for (std::uint32_t p = 0; p < (1u << cell.num_inputs()); ++p) {
    std::vector<bool> in;
    for (int i = 0; i < cell.num_inputs(); ++i)
      in.push_back((p >> i) & 1u);
    EXPECT_EQ(sim.evaluate(in)[0], cell.function.eval(p))
        << cell.name << " pattern " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellSimTest, ::testing::Range(0, 72));

TEST(BitSim, WordParallelMatchesScalar) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId g1 = net.add_gate(tt_xor(2), {a, b});
  const NodeId g2 = net.add_gate(tt_mux2(), {g1, a, c});
  net.add_output("y", g2);

  BitSimulator sim(net);
  Rng rng(42);
  const std::uint64_t wa = rng.next_u64(), wb = rng.next_u64(),
                      wc = rng.next_u64();
  const auto values = sim.simulate(std::vector<std::uint64_t>{wa, wb, wc});
  for (int bit = 0; bit < 64; ++bit) {
    const bool ea = (wa >> bit) & 1, eb = (wb >> bit) & 1,
               ec = (wc >> bit) & 1;
    const bool expected = ec ? ea : (ea ^ eb);
    EXPECT_EQ(((values[g2] >> bit) & 1) != 0, expected) << bit;
  }
}

TEST(BitSim, ConstantsSimulateToRails) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId k1 = net.add_constant(true);
  const NodeId g = net.add_gate(tt_and(2), {a, k1});
  net.add_output("y", g);
  BitSimulator sim(net);
  const auto values = sim.simulate(std::vector<std::uint64_t>{0xF0F0ULL});
  EXPECT_EQ(values[k1], ~0ULL);
  EXPECT_EQ(values[g], 0xF0F0ULL);
}

TEST(BitSim, ParityTreeComputesParity) {
  const Library lib = build_compass_library();
  Network net("p");
  std::vector<NodeId> pis;
  for (int i = 0; i < 8; ++i)
    pis.push_back(net.add_input(std::string("i").append(std::to_string(i))));
  std::vector<NodeId> layer = pis;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(net.add_gate(tt_xor(2), {layer[i], layer[i + 1]}));
    layer = std::move(next);
  }
  net.add_output("p", layer[0]);
  BitSimulator sim(net);
  Rng rng(7);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<bool> in;
    int ones = 0;
    for (int i = 0; i < 8; ++i) {
      in.push_back(rng.next_bool());
      ones += in.back();
    }
    EXPECT_EQ(sim.evaluate(in)[0], (ones % 2) == 1);
  }
}

}  // namespace
}  // namespace dvs
