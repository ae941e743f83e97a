// The one converter rule: a gate carries a level converter exactly when
// it drives a gate on a strictly shallower ladder rung that is not itself
// a converter cell, and the converter carries exactly those fanout pins,
// however close the rungs' voltages sit.  The ladder {5.0, 4.9999995},
// whose rungs are 0.5 uV apart and which SupplyLadder accepts, is where a
// voltage comparison with a tolerance misses the boundary; the 3- and
// 4-rung ladders are where a converter can already sit on a gate that
// moves deeper.  On each, Design's converter answers, the timing kernel,
// the power model, the evaluation ledger and the ECO session's full and
// incremental evaluates must agree converter for converter: every
// converter Design counts carries load, a later output and power.  A
// real converter cell ends the boundary, so inserting one replaces the
// virtual converter instead of adding a second.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/design.hpp"
#include "power/eval_ledger.hpp"
#include "service/design_session.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"
#include "timing/incremental.hpp"

namespace dvs {
namespace {

const std::vector<double> kTight = {5.0, 4.9999995};
const std::vector<double> kWide = {5.0, 4.3};
const std::vector<double> kThree = {5.0, 4.3, 3.6};
const std::vector<double> kFour = {5.0, 4.6, 4.2, 3.8};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Library ladder_library(const std::vector<double>& voltages) {
  Library lib = build_compass_library();
  lib.set_supply_ladder(SupplyLadder(voltages));
  return lib;
}

/// a -> g1 -> g2 -> y, two inv_d0, with g1 on rung 1 under g2 on rung 0.
Design inverter_pair(const Library& lib, NodeId* g1, NodeId* g2) {
  Network net("pair");
  const NodeId a = net.add_input("a");
  const int inv = lib.find("inv_d0");
  *g1 = net.add_gate(tt_inv(), {a}, inv);
  *g2 = net.add_gate(tt_inv(), {*g1}, inv);
  net.add_output("y", *g2);
  Design design(std::move(net), lib);
  design.set_level(*g1, SupplyId{1});
  return design;
}

/// Every gate Design says needs a converter carries converter load and a
/// converter output later than its own; no other node carries converter
/// load; and the converter power is those gates' converter terms, summed
/// in node order as compute_power sums them.
void expect_design_matches_kernels(const Design& design,
                                   const std::string& where) {
  const Library& lib = design.library();
  const Cell& lc = lib.cell(lib.level_converter());
  const double vh2 = lib.vdd_high() * lib.vdd_high();
  const StaResult sta = design.run_timing();
  const std::vector<double>& alpha = design.activity().alpha01;
  double converter = 0.0;
  design.network().for_each_node([&](const Node& n) {
    const NodeId id = n.id;
    if (!design.needs_lc(id)) {
      EXPECT_EQ(sta.lc_load[id], 0.0) << where << ", node " << id;
      return;
    }
    EXPECT_GT(sta.lc_load[id], 0.0) << where << ", node " << id;
    EXPECT_GT(sta.lc_arrival[id].max(), sta.arrival[id].max())
        << where << ", node " << id;
    converter += alpha[id] * design.freq_mhz() *
                     (sta.lc_load[id] + lc.internal_cap) * vh2 *
                     kSwitchPowerToMicrowatt +
                 lc.leakage;
  });
  EXPECT_DOUBLE_EQ(design.run_power().converter, converter) << where;
}

TEST(ConverterRuleTest, TightLadderConverterCarriesLoadArrivalAndPower) {
  const Library tight = ladder_library(kTight);
  const Library wide = ladder_library(kWide);
  NodeId g1 = kNoNode;
  NodeId g2 = kNoNode;
  const Design on_tight = inverter_pair(tight, &g1, &g2);
  const Design on_wide = inverter_pair(wide, &g1, &g2);

  EXPECT_TRUE(on_tight.needs_lc(g1));
  EXPECT_EQ(on_tight.count_lcs(), 1);
  EXPECT_EQ(on_tight.total_area(),
            2 * tight.cell(tight.find("inv_d0")).area +
                tight.cell(tight.level_converter()).area);

  // g2's pin sits behind g1's converter, and g2 reads its later output.
  const StaResult sta = on_tight.run_timing();
  EXPECT_GT(sta.lc_load[g1], 0.0);
  EXPECT_EQ(sta.lc_load[g1], on_wide.run_timing().lc_load[g1]);
  EXPECT_GT(sta.lc_arrival[g1].max(), sta.arrival[g1].max());

  // The converter runs at the top rung and switches with its driver, so
  // its power does not depend on how far below the top g1 sits.
  const PowerBreakdown power = on_tight.run_power();
  EXPECT_GT(power.converter, 0.0);
  EXPECT_EQ(bits(power.converter), bits(on_wide.run_power().converter));
  expect_design_matches_kernels(on_tight, "inverter pair");
}

/// 60 seeded rung moves, each to another rung picked at random (on two
/// rungs, the other one): after every move Design's converter answers
/// match the kernels, and the incremental timer and the evaluation
/// ledger equal the full computations.  Returns the most converters
/// any step needed; on failure the caller stops.
int walk_rungs(Design& design, const std::string& label) {
  IncrementalSta timer(design.timing_context(), design.tspec());
  EvalLedger ledger(design.power_context());
  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  EXPECT_FALSE(gates.empty()) << label;
  const std::uint64_t depth = design.supplies().depth();
  Rng rng(mix_seed(0xc0de, gates.size()));
  int max_converters = 0;
  for (int step = 1; step <= 60 && !gates.empty(); ++step) {
    const NodeId id = gates[rng.next_below(gates.size())];
    const std::uint64_t offset =
        depth > 2 ? 1 + rng.next_below(depth - 1) : 1;
    design.set_level(
        id, static_cast<SupplyId>((design.level(id) + offset) % depth));
    timer.on_node_changed(id);
    ledger.on_node_changed(id);
    const std::string where = label + " step " + std::to_string(step);
    expect_design_matches_kernels(design, where);
    EXPECT_TRUE(timer.matches_full_sta(1e-9)) << where;
    const PowerBreakdown full = design.run_power();
    const EvalLedger::Totals kept = ledger.totals();
    EXPECT_EQ(bits(kept.power.total()), bits(full.total())) << where;
    EXPECT_EQ(bits(kept.power.converter), bits(full.converter)) << where;
    EXPECT_EQ(bits(kept.area), bits(design.total_area())) << where;
    EXPECT_EQ(ledger.level_converters(), design.count_lcs()) << where;
    if (::testing::Test::HasFailure()) break;
    max_converters = std::max(max_converters, design.count_lcs());
  }
  return max_converters;
}

/// The walk on MCNC circuits at the tight ladder and at three and four
/// rungs, where moves between two deep rungs grow, shrink and clear
/// converters a gate already carries.
TEST(ConverterRuleTest, RungWalksKeepDesignKernelsAndLedgerInStep) {
  for (const std::vector<double>* ladder : {&kTight, &kThree, &kFour}) {
    const Library lib = ladder_library(*ladder);
    for (const char* circuit : {"x2", "b9"}) {
      Design design(build_mcnc_circuit(lib, *find_mcnc(circuit)), lib);
      const std::string label =
          std::string(circuit) + " at " + lib.supplies().spec();
      const int max_converters = walk_rungs(design, label);
      if (::testing::Test::HasFailure()) return;
      EXPECT_GT(max_converters, 0) << label;
    }
  }
}

/// A real converter cell restores the level: the pin into it runs direct,
/// so its driver needs no virtual converter, and the converter cell on a
/// deep rung needs one of its own in front of a top-rung reader.
TEST(ConverterRuleTest, RealConverterCellEndsTheBoundary) {
  const Library lib = ladder_library(kWide);
  NodeId g1 = kNoNode;
  NodeId g2 = kNoNode;
  Design design = inverter_pair(lib, &g1, &g2);
  ASSERT_TRUE(design.needs_lc(g1));
  const double inv_area = lib.cell(lib.find("inv_d0")).area;
  const double lc_area = lib.cell(lib.level_converter()).area;
  const double virtual_area = design.total_area();
  EXPECT_EQ(virtual_area, 2 * inv_area + lc_area);

  const NodeId lc = design.network().insert_between(
      g1, {g2}, {}, tt_buf(), lib.level_converter(), "g1_lc");
  design.sync_with_network();
  EXPECT_FALSE(design.needs_lc(g1));
  EXPECT_FALSE(design.through_converter(g1, lc));
  EXPECT_EQ(design.count_lcs(), 0);
  EXPECT_EQ(design.total_area(), virtual_area);  // one converter, now real
  EXPECT_EQ(design.run_timing().lc_load[g1], 0.0);
  EXPECT_EQ(design.run_power().converter, 0.0);
  expect_design_matches_kernels(design, "real converter");

  design.set_level(lc, SupplyId{1});
  EXPECT_TRUE(design.needs_lc(lc));
  EXPECT_EQ(design.count_lcs(), 1);
  expect_design_matches_kernels(design, "real converter one rung down");
}

void edit_gate(DesignRegistry& registry, const std::string& design,
               DesignEdit::Op op, std::int64_t gate, int rung = 0) {
  DesignEdit edit;
  edit.op = op;
  edit.gate = Json(gate);
  edit.rung = rung;
  EditRequest request;
  request.design = design;
  request.edits.push_back(edit);
  registry.edit(request);
}

Json::Object evaluate(DesignRegistry& registry, const std::string& design,
                      const std::string& mode) {
  ReoptimizeRequest request;
  request.design = design;
  request.mode = mode;
  return registry.reoptimize(request).fields;
}

/// Through an ECO session: x2 at supplies [5.0, 4.9999995] with gates 20
/// and 25 one rung down.  Both gates drive top-rung gates, so each
/// carries a converter; moving 0.5 uV down saves far less than two
/// converters cost, and the full and incremental evaluates agree.
TEST(ConverterRuleTest, TightLadderEcoEvaluatesChargeEveryConverter) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  OpenDesignRequest open;
  open.circuit = "x2";
  open.name = "tight";
  open.options.supplies = kTight;
  registry.open(open);
  for (std::int64_t gate : {20, 25})
    edit_gate(registry, "tight", DesignEdit::Op::kRung, gate, 1);
  const Json::Object full = evaluate(registry, "tight", "full");
  const Json::Object incremental = evaluate(registry, "tight", "incremental");
  ASSERT_EQ(incremental.at("mode").as_string(), "incremental");
  EXPECT_EQ(full.at("level_converters").as_int(), 2);
  EXPECT_GT(full.at("power_uw").as_double(),
            full.at("org_power_uw").as_double());
  for (const char* field : {"power_uw", "arrival_ns", "area_um2", "low",
                            "level_converters", "resized", "improve_pct"})
    EXPECT_EQ(full.at(field).dump(), incremental.at(field).dump()) << field;
}

/// `insert_lc` on a gate one rung down replaces its virtual converter
/// with the real cell: x2's area stays at 2058 um^2 (both converters are
/// the same 34 um^2 cell), `level_converters` (the converters the rung
/// assignment implies) drops to 0, power stays below and arrival no
/// later than the answer that charged the real cell beside the virtual
/// one (2092 um^2, 1 converter, 91.748135706959729 uW, 2.1733442669586629
/// ns).
TEST(ConverterRuleTest, InsertedConverterReplacesTheVirtualOne) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  OpenDesignRequest open;
  open.circuit = "x2";
  open.name = "lc";
  registry.open(open);
  edit_gate(registry, "lc", DesignEdit::Op::kRung, 20, 1);
  const Json::Object virtual_lc = evaluate(registry, "lc", "full");
  EXPECT_EQ(virtual_lc.at("level_converters").as_int(), 1);
  EXPECT_EQ(virtual_lc.at("area_um2").as_double(), 2058.0);

  edit_gate(registry, "lc", DesignEdit::Op::kInsertLc, 20);
  const Json::Object real_lc = evaluate(registry, "lc", "full");
  EXPECT_EQ(real_lc.at("area_um2").as_double(), 2058.0);
  EXPECT_EQ(real_lc.at("level_converters").as_int(), 0);
  EXPECT_LT(real_lc.at("power_uw").as_double(), 91.748135706959729);
  EXPECT_LE(real_lc.at("arrival_ns").as_double(), 2.1733442669586629);

  const Json::Object incremental = evaluate(registry, "lc", "incremental");
  ASSERT_EQ(incremental.at("mode").as_string(), "incremental");
  for (const auto& [field, value] : real_lc) {
    if (field == "mode" || field == "wall_ms") continue;
    ASSERT_TRUE(incremental.count(field)) << field;
    EXPECT_EQ(value.dump(), incremental.at(field).dump()) << field;
  }
}

}  // namespace
}  // namespace dvs
