#include "synth/decompose.hpp"

#include <gtest/gtest.h>

#include "sim/bitsim.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

class CubePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CubePropertyTest, CoverEqualsTruthTable) {
  Rng rng(GetParam());
  const int vars = rng.next_int(0, 5);
  TruthTable tt{rng.next_u64(), vars};
  tt.bits &= tt.mask();
  const std::vector<Cube> cover = extract_cubes(tt);
  for (std::uint32_t p = 0; p < (1u << vars); ++p)
    EXPECT_EQ(cover_eval(cover, p), tt.eval(p))
        << "vars=" << vars << " bits=" << tt.bits << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubePropertyTest, ::testing::Range(0, 200));

TEST(Cubes, AndMergesToSingleCube) {
  const std::vector<Cube> cover = extract_cubes(tt_and(3));
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], (Cube{1, 1, 1}));
}

TEST(Cubes, TautologyIsSingleDontCareCube) {
  TruthTable tt{0b1111ULL, 2};
  const std::vector<Cube> cover = extract_cubes(tt);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], (Cube{2, 2}));
}

TEST(Cubes, ConstantZeroIsEmptyCover) {
  EXPECT_TRUE(extract_cubes(TruthTable{0, 3}).empty());
}

Network random_network(Rng& rng, int num_gates) {
  Network net("r");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i)
    nodes.push_back(net.add_input(std::string("i").append(std::to_string(i))));
  for (int g = 0; g < num_gates; ++g) {
    const int arity = rng.next_int(1, 4);
    std::vector<NodeId> fanins;
    for (int k = 0; k < arity; ++k) {
      NodeId f;
      do {
        f = nodes[rng.next_below(nodes.size())];
      } while (std::find(fanins.begin(), fanins.end(), f) != fanins.end());
      fanins.push_back(f);
    }
    TruthTable tt{rng.next_u64(), arity};
    tt.bits &= tt.mask();
    nodes.push_back(net.add_gate(tt, fanins));
  }
  net.add_output("y0", nodes.back());
  net.add_output("y1", nodes[nodes.size() / 2]);
  return net;
}

class DecomposePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DecomposePropertyTest, PreservesFunctionality) {
  Rng rng(3000 + GetParam());
  Network net = random_network(rng, 12);
  Network nand_net = decompose_to_nand2(net);

  // Only NAND2 / INV / constants remain.
  nand_net.for_each_gate([](const Node& g) {
    EXPECT_TRUE(g.function == tt_nand(2) || g.function == tt_inv())
        << "gate arity " << g.function.num_vars;
  });

  BitSimulator s1(net), s2(nand_net);
  for (std::uint32_t p = 0; p < 16; ++p) {
    std::vector<bool> in;
    for (int i = 0; i < 4; ++i) in.push_back((p >> i) & 1u);
    EXPECT_EQ(s1.evaluate(in), s2.evaluate(in)) << "pattern " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposePropertyTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace dvs
