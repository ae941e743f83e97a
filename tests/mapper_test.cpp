#include "synth/mapper.hpp"

#include <gtest/gtest.h>

#include "netlist/blif.hpp"
#include "sim/bitsim.hpp"
#include "support/rng.hpp"
#include "timing/sta.hpp"

namespace dvs {
namespace {

/// Every pattern in the forest must compute exactly its cell's function —
/// this is the test that keeps the hand-written NAND/INV trees honest.
class PatternTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PatternTest, PatternLogicEqualsCellFunction) {
  static const Library lib = build_compass_library();
  const Pattern& p = mapper_patterns()[GetParam()];
  const int cell = lib.smallest_of(p.cell_base);
  ASSERT_GE(cell, 0) << p.cell_base;
  const TruthTable& tt = lib.cell(cell).function;
  ASSERT_EQ(tt.num_vars, p.num_vars) << p.cell_base;
  for (std::uint32_t a = 0; a < (1u << p.num_vars); ++a)
    EXPECT_EQ(pattern_eval(p, a), tt.eval(a))
        << p.cell_base << " assignment " << a;
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternTest,
    ::testing::Range<std::size_t>(0, mapper_patterns().size()));

const char* kSample = R"(
.model sample
.inputs a b c d
.outputs y z
.names a b t
11 1
.names t c u
0- 1
-0 1
.names u d y
10 1
01 1
.names c d z
1- 1
-1 1
.end
)";

class MapperTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();
  Network src_ = read_blif_string(kSample);

  void expect_equivalent(const Network& a, const Network& b) {
    BitSimulator s1(a), s2(b);
    for (std::uint32_t p = 0; p < 16; ++p) {
      std::vector<bool> in;
      for (int i = 0; i < 4; ++i) in.push_back((p >> i) & 1u);
      EXPECT_EQ(s1.evaluate(in), s2.evaluate(in)) << "pattern " << p;
    }
  }
};

TEST_F(MapperTest, DelayMapPreservesFunction) {
  const MapResult r = map_network(src_, lib_, MapObjective::kDelay);
  expect_equivalent(src_, r.mapped);
  r.mapped.for_each_gate([](const Node& g) { EXPECT_GE(g.cell, 0); });
}

TEST_F(MapperTest, AreaMapPreservesFunction) {
  const MapResult r = map_network(src_, lib_, MapObjective::kArea);
  expect_equivalent(src_, r.mapped);
}

TEST_F(MapperTest, AreaMapNotLargerThanDelayMap) {
  const MapResult d = map_network(src_, lib_, MapObjective::kDelay);
  const MapResult a = map_network(src_, lib_, MapObjective::kArea);
  EXPECT_LE(a.area, d.area + 1e-9);
}

TEST_F(MapperTest, PaperSetupRelaxesTwentyPercent) {
  const PaperSetupResult r = map_paper_setup(src_, lib_, 0.2);
  EXPECT_NEAR(r.tspec, r.tmin * 1.2, 1e-9);
  const StaResult sta = run_sta(r.mapped, lib_, r.tspec);
  EXPECT_TRUE(sta.meets_constraint(1e-9));
  expect_equivalent(src_, r.mapped);
}

class MapRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MapRandomTest, RandomNetworksMapCorrectly) {
  static const Library lib = build_compass_library();
  Rng rng(7000 + GetParam());
  Network net("r");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i)
    nodes.push_back(net.add_input(std::string("i").append(std::to_string(i))));
  for (int g = 0; g < 15; ++g) {
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

  const MapResult r = map_network(net, lib, MapObjective::kArea);
  BitSimulator s1(net), s2(r.mapped);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<bool> in;
    for (int i = 0; i < 5; ++i) in.push_back(rng.next_bool());
    EXPECT_EQ(s1.evaluate(in), s2.evaluate(in));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapRandomTest, ::testing::Range(0, 40));

/// Each gate of this chain reads the two before it, so every cone is read
/// twice and the area objective's summed leaf costs grow like the
/// Fibonacci numbers: past 1,467 gates no match has a finite cost.
TEST(MapperReconvergence, FibonacciChainMapsToAnEquivalentNetwork) {
  static const Library lib = build_compass_library();
  Network net("fib");
  NodeId prev2 = net.add_input("a");
  NodeId prev1 = net.add_input("b");
  for (int i = 0; i < 2000; ++i) {
    const NodeId g = net.add_gate(tt_nand(2), {prev2, prev1});
    prev2 = prev1;
    prev1 = g;
  }
  net.add_output("y", prev1);
  const PaperSetupResult setup = map_paper_setup(net, lib);
  EXPECT_GT(setup.tspec, setup.tmin);
  const BitSimulator mapped(setup.mapped), source(net);
  Rng rng(11);
  for (int batch = 0; batch < 4; ++batch) {
    const std::vector<std::uint64_t> words = {rng.next_u64(), rng.next_u64()};
    EXPECT_EQ(mapped.simulate(words)[setup.mapped.outputs()[0].driver],
              source.simulate(words)[net.outputs()[0].driver]);
  }
}

}  // namespace
}  // namespace dvs
