// The supply-ladder subsystem: validation and its schema-verbatim error
// texts, canonical spelling/fingerprint stability across input forms,
// the positional converter policy, per-rung factor tables, and the
// ladder's coupling into Library (threshold check, fingerprint) and
// Design (assignment, per-level stats, boundary flags).
#include "library/supply.hpp"

#include <gtest/gtest.h>

#include "core/boundary.hpp"
#include "core/cvs.hpp"
#include "core/design.hpp"

namespace dvs {
namespace {

// ---- validation -----------------------------------------------------------

TEST(SupplyLadder, DefaultIsThePaperOperatingPoint) {
  const SupplyLadder ladder;
  EXPECT_EQ(ladder.depth(), 2);
  EXPECT_DOUBLE_EQ(ladder.top(), 5.0);
  EXPECT_DOUBLE_EQ(ladder.bottom(), 4.3);
  EXPECT_EQ(ladder.deepest(), SupplyId{1});
}

TEST(SupplyLadder, RejectsBadShapesWithSchemaText) {
  const auto error_of = [](std::vector<double> voltages) {
    try {
      SupplyLadder ladder(std::move(voltages));
      return std::string("(accepted)");
    } catch (const SupplyError& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(error_of({5.0}), "supplies must list between 2 and 8 voltages");
  EXPECT_EQ(error_of({9, 8, 7, 6, 5, 4, 3, 2, 1.5}),
            "supplies must list between 2 and 8 voltages");
  EXPECT_EQ(error_of({4.3, 5.0}), "supplies must be strictly descending");
  EXPECT_EQ(error_of({5.0, 5.0}), "supplies must be strictly descending");
  EXPECT_EQ(error_of({5.0, 0.5}), "supplies out of range");
  EXPECT_EQ(error_of({12.0, 5.0}), "supplies out of range");
}

TEST(SupplyLadder, ParserAcceptsCsvAndRejectsJunk) {
  const SupplyLadder ladder = parse_supply_ladder(" 5.0, 4.3 ,3.6");
  EXPECT_EQ(ladder.depth(), 3);
  EXPECT_DOUBLE_EQ(ladder.voltage(SupplyId{2}), 3.6);
  EXPECT_THROW(parse_supply_ladder(""), SupplyError);
  EXPECT_THROW(parse_supply_ladder("5.0,"), SupplyError);
  EXPECT_THROW(parse_supply_ladder("5.0,4.3V"), SupplyError);
  EXPECT_THROW(parse_supply_ladder("5.0 4.3"), SupplyError);
}

// ---- canonical forms ------------------------------------------------------

TEST(SupplyLadder, CanonicalSpecIsAParseFixpoint) {
  for (const char* text : {"5,4.3", "5.0,4.30,3.600", "4.99,4.0,3.5,3.0"}) {
    const SupplyLadder ladder = parse_supply_ladder(text);
    EXPECT_EQ(parse_supply_ladder(ladder.spec()), ladder) << text;
    EXPECT_EQ(parse_supply_ladder(ladder.spec()).spec(), ladder.spec());
  }
  EXPECT_EQ(parse_supply_ladder("5.0,4.30").spec(), "5,4.3");
}

TEST(SupplyLadder, FingerprintTracksVoltagesNotSpelling) {
  const SupplyLadder a = parse_supply_ladder("5.0,4.3,3.6");
  const SupplyLadder b =
      supply_ladder_from_json(Json::parse("[5, 4.3, 3.6]"));
  const SupplyLadder c = supply_ladder_from_json(Json("5,4.30,3.60"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), c.fingerprint());
  EXPECT_NE(a.fingerprint(), SupplyLadder({5.0, 4.3}).fingerprint());
  EXPECT_NE(a.fingerprint(), SupplyLadder({5.0, 4.3, 3.7}).fingerprint());
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

// ---- converter policy and factors -----------------------------------------

TEST(SupplyLadder, ConverterNeededOnlyOnUpwardBoundaries) {
  // driver deeper than sink (sink at higher voltage) => converter.
  EXPECT_TRUE(SupplyLadder::converter_needed(SupplyId{1}, SupplyId{0}));
  EXPECT_TRUE(SupplyLadder::converter_needed(SupplyId{2}, SupplyId{0}));
  EXPECT_TRUE(SupplyLadder::converter_needed(SupplyId{2}, SupplyId{1}));
  // Same rung or stepping down: never.
  EXPECT_FALSE(SupplyLadder::converter_needed(SupplyId{0}, SupplyId{0}));
  EXPECT_FALSE(SupplyLadder::converter_needed(SupplyId{0}, SupplyId{2}));
  EXPECT_FALSE(SupplyLadder::converter_needed(SupplyId{1}, SupplyId{2}));
}

TEST(SupplyLadder, FactorTablesMatchTheModelPerRung) {
  const SupplyLadder ladder({5.0, 4.3, 3.6});
  const VoltageModel vm;
  const std::vector<double> delay = ladder.delay_factors(vm);
  ASSERT_EQ(delay.size(), 3u);
  for (SupplyId r = 0; r < 3; ++r)
    EXPECT_EQ(delay[r], vm.delay_factor(ladder.voltage(r)));
  // Deeper rungs are slower, monotonically.
  EXPECT_LT(delay[0], delay[1]);
  EXPECT_LT(delay[1], delay[2]);
}

TEST(SupplyLadder, RungNamesAndCountsJson) {
  EXPECT_EQ(supply_rung_name(SupplyId{0}, 3), "high");
  EXPECT_EQ(supply_rung_name(SupplyId{1}, 3), "v1");
  EXPECT_EQ(supply_rung_name(SupplyId{2}, 3), "low");
  EXPECT_EQ(supply_rung_name(SupplyId{1}, 2), "low");
  EXPECT_EQ(supply_counts_json({7, 2, 1}).dump(), "[7,2,1]");
  EXPECT_EQ(std::string(kLowGatesKey), "low");
}

// ---- library / design coupling --------------------------------------------

TEST(SupplyLadder, LibraryRejectsLaddersBelowThreshold) {
  Library lib = build_compass_library();
  // Threshold is 0.8V for the compass model; parse-valid ladders whose
  // bottom clears it install fine.
  lib.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6}));
  EXPECT_EQ(lib.supplies().depth(), 3);
  EXPECT_DOUBLE_EQ(lib.vdd_high(), 5.0);
  EXPECT_DOUBLE_EQ(lib.vdd_low(), 3.6);
  // A model with a higher threshold rejects the same ladder verbatim.
  Library strict = build_compass_library();
  strict.voltage_model().vt = 3.8;
  EXPECT_THROW(strict.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6})),
               SupplyError);
}

TEST(SupplyLadder, DesignTracksRungsAndBoundaries) {
  Library lib = build_compass_library();
  lib.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6}));

  // chain: a -> g1 -> g2 -> po, plus g1 -> g3 -> po2.
  Network net("t");
  const NodeId a = net.add_input("a");
  const int inv = lib.find("inv_d0");
  const NodeId g1 = net.add_gate(tt_inv(), {a}, inv);
  const NodeId g2 = net.add_gate(tt_inv(), {g1}, inv);
  const NodeId g3 = net.add_gate(tt_inv(), {g1}, inv);
  net.add_output("y", g2);
  net.add_output("z", g3);
  Design design(std::move(net), lib);

  // Middle rung: the contexts carry the rung itself.
  design.set_level(g1, SupplyId{1});
  EXPECT_EQ(design.timing_context().node_level[g1], SupplyId{1});
  // g1 at rung 1 feeding rung-0 sinks: upward boundary, converter.
  EXPECT_TRUE(design.needs_lc(g1));
  // Sinks dropped to the same rung: boundary gone.
  design.set_level(g2, SupplyId{1});
  design.set_level(g3, SupplyId{1});
  EXPECT_FALSE(design.needs_lc(g1));
  // Sinks even deeper than the driver: still no converter (step-down).
  design.set_level(g2, SupplyId{2});
  design.set_level(g3, SupplyId{2});
  EXPECT_FALSE(design.needs_lc(g1));
  // But a deep driver under a shallower sink needs one again.
  design.set_level(g1, SupplyId{2});
  design.set_level(g2, SupplyId{1});
  EXPECT_TRUE(design.needs_lc(g1));

  // Per-level stats add up.
  const std::vector<int> counts = design.count_per_level();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 1);  // g2
  EXPECT_EQ(counts[2], 2);  // g1, g3
  EXPECT_EQ(design.count_low(), 3);

  // Materialization inserts real converters only on the upward edges.
  std::vector<char> low_mask;
  const Network out = materialize_level_converters(design, &low_mask);
  int converters = 0;
  out.for_each_gate([&](const Node& g) {
    if (g.cell >= 0 && lib.cell(g.cell).is_level_converter) ++converters;
  });
  EXPECT_EQ(converters, 1);
  EXPECT_TRUE(low_mask[g1]);
}

TEST(SupplyLadder, CvsOnThreeLevelsKeepsClusterInvariant) {
  Library lib = build_compass_library();
  lib.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6}));
  // A slack-rich chain lets CVS use the deepest rung; the cluster
  // invariant (no gate deeper than any of its fanouts, zero converters)
  // must hold rung-wise.
  Network net("chain");
  NodeId prev = net.add_input("a");
  const int inv = lib.find("inv_d0");
  for (int i = 0; i < 6; ++i)
    prev = net.add_gate(tt_inv(), {prev}, inv);
  net.add_output("y", prev);
  Design design(std::move(net), lib);
  design.set_tspec(design.tspec() * 2.0);  // generous slack
  const CvsResult result = run_cvs(design);
  EXPECT_GT(result.num_lowered, 0);
  EXPECT_TRUE(cvs_cluster_invariant_holds(design));
  EXPECT_EQ(design.count_lcs(), 0);
  // With that much slack the PO-side gates reach the deepest rung.
  EXPECT_GT(design.count_per_level()[2], 0);
  EXPECT_TRUE(design.run_timing().meets_constraint(1e-9));
}

}  // namespace
}  // namespace dvs
