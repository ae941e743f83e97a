#include "core/design.hpp"

#include <gtest/gtest.h>

#include "dual_ladder.hpp"

#include "core/boundary.hpp"

namespace dvs {
namespace {

class DesignTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  /// a -> g1 -> g2 -> po, plus g1 -> g3 -> po2 (g1 has two fanouts).
  Network make_net() {
    Network net("t");
    const NodeId a = net.add_input("a");
    const int inv = lib_.find("inv_d0");
    const NodeId g1 = net.add_gate(tt_inv(), {a}, inv);
    const NodeId g2 = net.add_gate(tt_inv(), {g1}, inv);
    const NodeId g3 = net.add_gate(tt_inv(), {g1}, inv);
    net.add_output("y", g2);
    net.add_output("z", g3);
    return net;
  }
};

TEST_F(DesignTest, StartsAllHigh) {
  Design design(make_net(), lib_);
  EXPECT_EQ(design.count_low(), 0);
  EXPECT_EQ(design.count_lcs(), 0);
  design.network().for_each_gate([&](const Node& g) {
    EXPECT_EQ(design.level(g.id), kTopRung);
    EXPECT_EQ(design.timing_context().node_level[g.id], kTopRung);
    EXPECT_EQ(design.power_context().node_level[g.id], kTopRung);
  });
}

TEST_F(DesignTest, TspecDefaultsToMappedDelay) {
  Design design(make_net(), lib_);
  const StaResult sta = design.run_timing();
  EXPECT_NEAR(design.tspec(), sta.worst_arrival, 1e-9);
  EXPECT_TRUE(sta.meets_constraint());
}

TEST_F(DesignTest, LcFlagTracksBoundary) {
  Network net = make_net();
  const NodeId g1 = net.node(net.outputs()[0].driver).fanins[0];
  Design design(std::move(net), lib_);
  design.set_level(g1, kLowRung);
  // g1 is low, its two fanouts are high: one converter needed.
  EXPECT_TRUE(design.needs_lc(g1));
  EXPECT_EQ(design.count_lcs(), 1);
  // Lower both fanouts: the boundary disappears.
  for (NodeId fo : design.network().node(g1).fanouts)
    design.set_level(fo, kLowRung);
  EXPECT_FALSE(design.needs_lc(g1));
  EXPECT_EQ(design.count_lcs(), 0);
}

TEST_F(DesignTest, PoDriversNeverNeedConverters) {
  Network net = make_net();
  const NodeId g2 = net.outputs()[0].driver;
  Design design(std::move(net), lib_);
  design.set_level(g2, kLowRung);
  EXPECT_FALSE(design.needs_lc(g2));
}

TEST_F(DesignTest, AreaIncludesConverters) {
  Network net = make_net();
  const NodeId g1 = net.node(net.outputs()[0].driver).fanins[0];
  Design design(std::move(net), lib_);
  const double base = design.total_area();
  EXPECT_NEAR(base, design.original_area(), 1e-9);
  design.set_level(g1, kLowRung);
  EXPECT_NEAR(design.total_area(),
              base + lib_.cell(lib_.level_converter()).area, 1e-9);
}

TEST_F(DesignTest, ResizeCounting) {
  Network net = make_net();
  const NodeId g2 = net.outputs()[0].driver;
  Design design(std::move(net), lib_);
  EXPECT_EQ(design.count_resized(), 0);
  const int bigger = lib_.upsize(design.network().node(g2).cell);
  design.network().set_cell(g2, bigger);
  EXPECT_EQ(design.count_resized(), 1);
  design.network().set_cell(g2, design.original_cell(g2));
  EXPECT_EQ(design.count_resized(), 0);
}

TEST_F(DesignTest, ActivityIsCachedAndDeterministic) {
  Design design(make_net(), lib_);
  const Activity& a1 = design.activity();
  const Activity& a2 = design.activity();
  EXPECT_EQ(&a1, &a2);
  EXPECT_GT(design.run_power().total(), 0.0);
}

TEST_F(DesignTest, MaterializeConvertersInsertsRealGates) {
  Network net = make_net();
  const NodeId g1 = net.node(net.outputs()[0].driver).fanins[0];
  Design design(std::move(net), lib_);
  design.set_level(g1, kLowRung);
  std::vector<char> low_mask;
  Network materialized = materialize_level_converters(design, &low_mask);
  int converters = 0;
  materialized.for_each_gate([&](const Node& g) {
    if (g.cell >= 0 && lib_.cell(g.cell).is_level_converter) ++converters;
  });
  EXPECT_EQ(converters, 1);
  EXPECT_EQ(materialized.num_gates(),
            design.network().num_gates() + 1);
  EXPECT_TRUE(low_mask[g1]);
}

TEST_F(DesignTest, LoweringEverythingNeedsNoConverters) {
  Design design(make_net(), lib_);
  design.network().for_each_gate(
      [&](const Node& g) { design.set_level(g.id, kLowRung); });
  EXPECT_EQ(design.count_lcs(), 0);
  EXPECT_EQ(design.count_low(), 3);
}

}  // namespace
}  // namespace dvs
