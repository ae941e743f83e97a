#include "library/library.hpp"

#include <gtest/gtest.h>

namespace dvs {
namespace {

class CompassTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();
};

TEST_F(CompassTest, HasExactly72CombinationalCellsPlusConverter) {
  int combinational = 0;
  int converters = 0;
  for (int i = 0; i < lib_.num_cells(); ++i) {
    if (lib_.cell(i).is_level_converter)
      ++converters;
    else
      ++combinational;
  }
  EXPECT_EQ(combinational, 72);
  EXPECT_EQ(converters, 1);
}

TEST_F(CompassTest, InvertingCellsHaveThreeSizes) {
  for (const char* base : {"inv", "nand2", "nand3", "nand4", "nand5",
                           "nor2", "nor3", "nor4", "nor5", "aoi21",
                           "oai21", "aoi22", "oai22", "aoi211", "oai211",
                           "xnor2", "xnor3"}) {
    const int cell = lib_.smallest_of(base);
    ASSERT_GE(cell, 0) << base;
    EXPECT_EQ(lib_.variants_of(cell).size(), 3u) << base;
    // XNOR has an inverted output stage but is non-unate, so the
    // unateness-based classification applies to the others only.
    if (std::string(base).find("xnor") == std::string::npos) {
      EXPECT_TRUE(lib_.cell(cell).inverting()) << base;
    }
  }
}

TEST_F(CompassTest, NonInvertingCellsHaveTwoSizes) {
  for (const char* base : {"buf", "and2", "and3", "and4", "or2", "or3",
                           "or4", "xor2", "mux2", "maj3"}) {
    const int cell = lib_.smallest_of(base);
    ASSERT_GE(cell, 0) << base;
    EXPECT_EQ(lib_.variants_of(cell).size(), 2u) << base;
    EXPECT_FALSE(lib_.cell(cell).inverting()) << base;
  }
}

TEST_F(CompassTest, UpsizeDownsizeWalkTheLadder) {
  const int d0 = lib_.find("nand2_d0");
  const int d1 = lib_.upsize(d0);
  const int d2 = lib_.upsize(d1);
  EXPECT_EQ(lib_.cell(d1).name, "nand2_d1");
  EXPECT_EQ(lib_.cell(d2).name, "nand2_d2");
  EXPECT_EQ(lib_.upsize(d2), -1);
  EXPECT_EQ(lib_.downsize(d0), -1);
  EXPECT_EQ(lib_.downsize(d1), d0);
}

TEST_F(CompassTest, BiggerDrivesAreFasterButHeavier) {
  const int d0 = lib_.find("nand2_d0");
  const int d2 = lib_.find("nand2_d2");
  const Cell& small = lib_.cell(d0);
  const Cell& big = lib_.cell(d2);
  EXPECT_LT(big.arcs[0].resistance_rise, small.arcs[0].resistance_rise);
  EXPECT_GT(big.input_cap[0], small.input_cap[0]);
  EXPECT_GT(big.area, small.area);
}

TEST_F(CompassTest, StacksAreSlower) {
  EXPECT_GT(lib_.cell(lib_.find("nand4_d0")).arcs[0].resistance_rise,
            lib_.cell(lib_.find("nand2_d0")).arcs[0].resistance_rise);
  EXPECT_GT(lib_.cell(lib_.find("nor4_d0")).arcs[0].intrinsic_rise,
            lib_.cell(lib_.find("nor2_d0")).arcs[0].intrinsic_rise);
}

TEST_F(CompassTest, FunctionMatchingFindsFamilies) {
  const auto nand2_matches = lib_.cells_matching(tt_nand(2));
  ASSERT_EQ(nand2_matches.size(), 1u);
  EXPECT_EQ(lib_.cell(nand2_matches[0]).base_name, "nand2");
  EXPECT_TRUE(lib_.cells_matching(tt_mux2()).size() == 1u);
}

TEST_F(CompassTest, CellFunctionsMatchTheirNames) {
  EXPECT_TRUE(lib_.cell(lib_.find("xor2_d0")).function == tt_xor(2));
  EXPECT_TRUE(lib_.cell(lib_.find("aoi22_d1")).function == tt_aoi22());
  EXPECT_TRUE(lib_.cell(lib_.find("maj3_d0")).function == tt_maj3());
  EXPECT_TRUE(lib_.cell(lib_.find("inv_d2")).function == tt_inv());
}

TEST_F(CompassTest, SupplySetters) {
  lib_.set_supplies(3.3, 2.4);
  EXPECT_DOUBLE_EQ(lib_.vdd_high(), 3.3);
  EXPECT_DOUBLE_EQ(lib_.vdd_low(), 2.4);
}

TEST(WireLoad, GrowsWithFanout) {
  WireLoadModel wire;
  EXPECT_DOUBLE_EQ(wire.wire_cap(0), 0.0);
  EXPECT_GT(wire.wire_cap(3), wire.wire_cap(1));
}

}  // namespace
}  // namespace dvs
