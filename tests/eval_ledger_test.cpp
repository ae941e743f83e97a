// The evaluation ledger (power/eval_ledger.hpp) against the full
// computations it replaces: after every step of seeded random edit walks
// — rung moves, upsizes, downsizes and drive-variant swaps on MCNC
// circuits over 2-, 3- and 4-rung ladders, with converters on every
// upward boundary — its power equals compute_power's total and each of
// the four categories bit for bit, its area equals Design::total_area
// bit for bit, and its low / level-converter / resized counts are equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/design.hpp"
#include "power/eval_ledger.hpp"
#include "support/rng.hpp"
#include "timing/incremental.hpp"

namespace dvs {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every ledger total against the full computation of the same state.
void expect_ledger_exact(const EvalLedger& ledger, const Design& design,
                         const std::string& where) {
  const PowerBreakdown full = design.run_power();
  const EvalLedger::Totals totals = ledger.totals();
  const PowerBreakdown& kept = totals.power;
  EXPECT_EQ(bits(kept.switching), bits(full.switching)) << where;
  EXPECT_EQ(bits(kept.internal), bits(full.internal)) << where;
  EXPECT_EQ(bits(kept.converter), bits(full.converter)) << where;
  EXPECT_EQ(bits(kept.leakage), bits(full.leakage)) << where;
  EXPECT_EQ(bits(kept.total()), bits(full.total())) << where;
  EXPECT_EQ(bits(totals.area), bits(design.total_area())) << where;
  EXPECT_EQ(ledger.low(), design.count_low()) << where;
  EXPECT_EQ(ledger.level_converters(), design.count_lcs()) << where;
  EXPECT_EQ(ledger.resized(), design.count_resized()) << where;
}

std::vector<NodeId> mapped_gates(const Design& design) {
  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  return gates;
}

/// One random point edit on `design`, the ledger notified after it.
/// Returns false when the draw found nothing to change.
bool random_edit(Design& design, EvalLedger& ledger,
                 const std::vector<NodeId>& gates, Rng& rng) {
  const Library& lib = design.library();
  const NodeId id = gates[rng.next_below(gates.size())];
  const int cell = design.network().node(id).cell;
  int next = -1;
  switch (rng.next_below(5)) {
    case 0:
    case 1: {  // rung move, any rung but the current one
      const int depth = design.supplies().depth();
      const int shift = 1 + static_cast<int>(rng.next_below(depth - 1));
      design.set_level(id, static_cast<SupplyId>(
                               (design.level(id) + shift) % depth));
      ledger.on_node_changed(id);
      return true;
    }
    case 2:
      next = lib.upsize(cell);
      break;
    case 3:
      next = lib.downsize(cell);
      break;
    default: {  // a drive-variant swap, as the ECO `cell` edit makes
      const std::span<const int> variants = lib.variants_of(cell);
      next = variants[rng.next_below(variants.size())];
      break;
    }
  }
  if (next < 0 || next == cell) return false;
  design.network().set_cell(id, next);
  ledger.on_node_changed(id);
  return true;
}

struct WalkCase {
  const char* circuit;
  std::vector<double> ladder;
};

void PrintTo(const WalkCase& c, std::ostream* os) {
  *os << c.circuit << " on " << c.ladder.size() << " rungs";
}

class LedgerWalk : public ::testing::TestWithParam<WalkCase> {};

TEST_P(LedgerWalk, EveryStepEqualsTheFullComputations) {
  const WalkCase& c = GetParam();
  Library lib = build_compass_library();
  lib.set_supply_ladder(SupplyLadder(c.ladder));
  Design design(build_mcnc_circuit(lib, *find_mcnc(c.circuit)), lib);
  EvalLedger ledger(design.power_context());
  expect_ledger_exact(ledger, design, "initial build");

  const std::vector<NodeId> gates = mapped_gates(design);
  ASSERT_FALSE(gates.empty());
  Rng rng(mix_seed(0x1ed9e5, gates.size() * 8 + c.ladder.size()));
  int max_converters = 0;
  int max_resized = 0;
  for (int step = 0; step < 150;) {
    if (!random_edit(design, ledger, gates, rng)) continue;
    ++step;
    expect_ledger_exact(ledger, design, "step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
    max_converters = std::max(max_converters, ledger.level_converters());
    max_resized = std::max(max_resized, ledger.resized());
  }
  // The walk exercised converters and resized cells, not just rungs.
  EXPECT_GT(max_converters, 0);
  EXPECT_GT(max_resized, 0);
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndLadders, LedgerWalk,
    ::testing::Values(
        WalkCase{"x2", {5.0, 4.3}}, WalkCase{"b9", {5.0, 4.3}},
        WalkCase{"alu4", {5.0, 4.3}}, WalkCase{"C7552", {5.0, 4.3}},
        WalkCase{"des", {5.0, 4.3}}, WalkCase{"x2", {5.0, 4.3, 3.6}},
        WalkCase{"b9", {5.0, 4.3, 3.6}}, WalkCase{"alu4", {5.0, 4.3, 3.6}},
        WalkCase{"C7552", {5.0, 4.3, 3.6}}, WalkCase{"des", {5.0, 4.3, 3.6}},
        WalkCase{"x2", {5.0, 4.6, 4.2, 3.8}},
        WalkCase{"b9", {5.0, 4.6, 4.2, 3.8}},
        WalkCase{"alu4", {5.0, 4.6, 4.2, 3.8}},
        WalkCase{"C7552", {5.0, 4.6, 4.2, 3.8}},
        WalkCase{"des", {5.0, 4.6, 4.2, 3.8}}),
    [](const ::testing::TestParamInfo<WalkCase>& info) {
      return std::string(info.param.circuit) + "_" +
             std::to_string(info.param.ladder.size()) + "rungs";
    });

TEST(EvalLedgerTest, UpdateRecomputesTheNodeAndItsFanins) {
  const Library lib = build_compass_library();
  Design design(build_mcnc_circuit(lib, *find_mcnc("alu4")), lib);
  EvalLedger ledger(design.power_context());
  EXPECT_EQ(ledger.terms_computed(), design.network().num_live_nodes());

  Rng rng(4);
  const std::vector<NodeId> gates = mapped_gates(design);
  for (int step = 0; step < 50; ++step) {
    const NodeId id = gates[rng.next_below(gates.size())];
    design.set_level(id, design.level(id) == kTopRung
                             ? design.supplies().deepest()
                             : kTopRung);
    const std::int64_t before = ledger.terms_computed();
    ledger.on_node_changed(id);
    EXPECT_EQ(ledger.terms_computed() - before,
              1 + static_cast<std::int64_t>(
                      design.network().node(id).fanins.size()));
  }
}

TEST(EvalLedgerTest, RevertingEveryMoveRestoresTheCounts) {
  // A node's old contribution comes off its stored flags, not off the
  // design, which already holds the new state when the ledger hears.
  const Library lib = build_compass_library();
  Design design(build_mcnc_circuit(lib, *find_mcnc("b9")), lib);
  EvalLedger ledger(design.power_context());
  const std::vector<NodeId> gates = mapped_gates(design);
  const SupplyId low = design.supplies().deepest();
  for (NodeId id : gates) {
    design.set_level(id, low);
    ledger.on_node_changed(id);
    const int up = lib.upsize(design.network().node(id).cell);
    if (up >= 0) {
      design.network().set_cell(id, up);
      ledger.on_node_changed(id);
    }
  }
  EXPECT_EQ(ledger.low(), static_cast<int>(gates.size()));
  EXPECT_EQ(ledger.level_converters(), design.count_lcs());
  EXPECT_EQ(ledger.resized(), design.count_resized());
  EXPECT_GT(ledger.resized(), 0);
  for (NodeId id : gates) {
    design.set_level(id, kTopRung);
    ledger.on_node_changed(id);
    design.network().set_cell(id, design.original_cell(id));
    ledger.on_node_changed(id);
  }
  EXPECT_EQ(ledger.low(), 0);
  EXPECT_EQ(ledger.level_converters(), 0);
  EXPECT_EQ(ledger.resized(), 0);
  expect_ledger_exact(ledger, design, "after reverting every move");
}

TEST(EvalLedgerTest, RebuildMatchesAMaintainedLedger) {
  Library lib = build_compass_library();
  lib.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6}));
  Design design(build_mcnc_circuit(lib, *find_mcnc("C7552")), lib);
  EvalLedger maintained(design.power_context());
  EvalLedger rebuilt(design.power_context());
  IncrementalSta timer(design.timing_context(), design.tspec());
  const std::vector<NodeId> gates = mapped_gates(design);
  Rng rng(7552);
  for (int step = 0; step < 100;) {
    // The session's order: the timer hears first, then the ledger.
    const NodeId id = gates[rng.next_below(gates.size())];
    const int up = lib.upsize(design.network().node(id).cell);
    if (rng.next_bool() && up >= 0)
      design.network().set_cell(id, up);
    else
      design.set_level(id, static_cast<SupplyId>(rng.next_below(3)));
    timer.on_node_changed(id);
    maintained.on_node_changed(id);
    ++step;
  }
  const std::size_t bytes = rebuilt.bytes();
  rebuilt.rebuild();
  EXPECT_EQ(rebuilt.bytes(), bytes);  // in place
  EXPECT_EQ(bits(rebuilt.totals().power.total()),
            bits(maintained.totals().power.total()));
  EXPECT_EQ(bits(rebuilt.totals().area), bits(maintained.totals().area));
  EXPECT_EQ(rebuilt.low(), maintained.low());
  EXPECT_EQ(rebuilt.level_converters(), maintained.level_converters());
  EXPECT_EQ(rebuilt.resized(), maintained.resized());
  expect_ledger_exact(maintained, design, "maintained beside a timer");
}

}  // namespace
}  // namespace dvs
