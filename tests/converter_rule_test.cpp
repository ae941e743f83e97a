// The one converter rule: a gate carries a level converter exactly when
// it drives a gate on a strictly shallower ladder rung, and the converter
// carries exactly those fanout pins, however close the rungs' voltages
// sit.  The ladder {5.0, 4.9999995}, whose rungs are 0.5 uV apart and
// which SupplyLadder accepts, is where a voltage comparison with a
// tolerance misses the boundary.  There Design's converter flags, the
// timing kernel, the power model, the evaluation ledger and the ECO
// session's full and incremental evaluates must agree converter for
// converter: every flagged converter carries load, a later output and
// power.
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

/// Every gate Design flags carries converter load and a converter output
/// later than its own; no other node carries converter load; and the
/// converter power is the flagged gates' converter terms, summed in node
/// order as compute_power sums them.
void expect_flags_match_kernels(const Design& design,
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
  expect_flags_match_kernels(on_tight, "inverter pair");
}

/// Seeded rung moves on MCNC circuits at the tight ladder: after every
/// move the flags match the kernels, and the incremental timer and the
/// evaluation ledger equal the full computations.
TEST(ConverterRuleTest, TightLadderWalkKeepsFlagsKernelsAndLedgerInStep) {
  const Library lib = ladder_library(kTight);
  for (const char* circuit : {"x2", "b9"}) {
    Design design(build_mcnc_circuit(lib, *find_mcnc(circuit)), lib);
    IncrementalSta timer(design.timing_context(), design.tspec());
    EvalLedger ledger(design.power_context());
    std::vector<NodeId> gates;
    design.network().for_each_gate([&](const Node& g) {
      if (g.cell >= 0) gates.push_back(g.id);
    });
    ASSERT_FALSE(gates.empty());
    Rng rng(mix_seed(0xc0de, gates.size()));
    int max_converters = 0;
    for (int step = 1; step <= 60; ++step) {
      const NodeId id = gates[rng.next_below(gates.size())];
      design.set_level(id, design.level(id) == kTopRung ? SupplyId{1}
                                                        : kTopRung);
      timer.on_node_changed(id);
      ledger.on_node_changed(id);
      const std::string where =
          std::string(circuit) + " step " + std::to_string(step);
      expect_flags_match_kernels(design, where);
      ASSERT_TRUE(timer.matches_full_sta(1e-9)) << where;
      const PowerBreakdown full = design.run_power();
      const EvalLedger::Totals kept = ledger.totals();
      EXPECT_EQ(bits(kept.power.total()), bits(full.total())) << where;
      EXPECT_EQ(bits(kept.power.converter), bits(full.converter)) << where;
      EXPECT_EQ(bits(kept.area), bits(design.total_area())) << where;
      EXPECT_EQ(ledger.level_converters(), design.count_lcs()) << where;
      if (::testing::Test::HasFailure()) return;
      max_converters = std::max(max_converters, design.count_lcs());
    }
    EXPECT_GT(max_converters, 0) << circuit;
  }
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
  for (std::int64_t gate : {20, 25}) {
    DesignEdit edit;
    edit.op = DesignEdit::Op::kRung;
    edit.gate = Json(gate);
    edit.rung = 1;
    EditRequest request;
    request.design = "tight";
    request.edits.push_back(edit);
    registry.edit(request);
  }
  const auto evaluate = [&](const std::string& mode) {
    ReoptimizeRequest request;
    request.design = "tight";
    request.mode = mode;
    return registry.reoptimize(request).fields;
  };
  const Json::Object full = evaluate("full");
  const Json::Object incremental = evaluate("incremental");
  ASSERT_EQ(incremental.at("mode").as_string(), "incremental");
  EXPECT_EQ(full.at("level_converters").as_int(), 2);
  EXPECT_GT(full.at("power_uw").as_double(),
            full.at("org_power_uw").as_double());
  for (const char* field : {"power_uw", "arrival_ns", "area_um2", "low",
                            "level_converters", "resized", "improve_pct"})
    EXPECT_EQ(full.at(field).dump(), incremental.at(field).dump()) << field;
}

}  // namespace
}  // namespace dvs
