// Randomized property test for the incremental STA: commit hundreds of
// random supply / cell-size / level-converter flips on random-DAG
// circuits and require the event-driven state to match a from-scratch
// analysis after every single commit.  This is the contract the Dscale /
// Gscale hot loops (and CVS) lean on.
#include <gtest/gtest.h>

#include "dual_ladder.hpp"

#include "benchgen/random_dag.hpp"
#include "core/design.hpp"
#include "support/rng.hpp"
#include "timing/incremental.hpp"
#include "reference.hpp"

namespace dvs {
namespace {

class IncrementalVsFullTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  Network random_circuit(std::uint64_t seed, double critical_fraction) {
    HybridSpec spec;
    spec.gates = 160;
    spec.pis = 16;
    spec.pos = 8;
    spec.critical_fraction = critical_fraction;
    spec.seed = seed;
    return build_hybrid_circuit(lib_, spec,
                                "rnd" + std::to_string(seed));
  }

  /// One random mutation: a supply flip (which also migrates the derived
  /// level-converter flags on the gate and its fanins) or a one-step
  /// resize.  Returns the changed node, or kNoNode if the draw found
  /// nothing applicable.
  NodeId random_flip(Design& design, Rng& rng) {
    const Network& net = design.network();
    std::vector<NodeId> gates;
    net.for_each_gate([&](const Node& g) {
      if (g.cell >= 0) gates.push_back(g.id);
    });
    if (gates.empty()) return kNoNode;
    const NodeId id = gates[rng.next_below(gates.size())];
    switch (rng.next_below(3)) {
      case 0:  // supply flip: low <-> high, LC flags follow
        design.set_level(id, design.level(id) == kTopRung
                                 ? kLowRung
                                 : kTopRung);
        return id;
      case 1: {  // upsize one drive step
        const int up = lib_.upsize(net.node(id).cell);
        if (up < 0) return kNoNode;
        design.network().set_cell(id, up);
        return id;
      }
      default: {  // downsize one drive step
        const int down = lib_.downsize(net.node(id).cell);
        if (down < 0) return kNoNode;
        design.network().set_cell(id, down);
        return id;
      }
    }
  }
};

TEST_F(IncrementalVsFullTest, TwoHundredRandomFlipsStayConsistent) {
  Rng rng(2024);
  Network net = random_circuit(77, 0.4);
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());
  ASSERT_TRUE(timer.matches_full_sta());

  int committed = 0;
  while (committed < 200) {
    const NodeId id = random_flip(design, rng);
    if (id == kNoNode) continue;
    timer.on_node_changed(id);
    ++committed;
    ASSERT_TRUE(timer.matches_full_sta(1e-9))
        << "diverged after commit " << committed << " (node " << id << ")";
  }
}

TEST_F(IncrementalVsFullTest, HoldsAcrossCircuitShapes) {
  // Shallow slack-rich and deep critical circuits stress different event
  // fan-outs; 60 flips each.
  for (const double critical : {0.0, 0.5, 0.9}) {
    Rng rng(1234 + static_cast<std::uint64_t>(critical * 10));
    Network net = random_circuit(500 + static_cast<int>(critical * 10),
                                 critical);
    Design design(std::move(net), lib_);
    IncrementalSta timer(design.timing_context(), design.tspec());
    int committed = 0;
    while (committed < 60) {
      const NodeId id = random_flip(design, rng);
      if (id == kNoNode) continue;
      timer.on_node_changed(id);
      ++committed;
      ASSERT_TRUE(timer.matches_full_sta(1e-9))
          << "critical=" << critical << " commit=" << committed;
    }
  }
}

/// The compiled-graph STA and the seed reference oracle must agree to
/// the last bit on every StaResult field — tspec, worst arrival, and per
/// node rise/fall arrivals, converter arrivals and requireds, slacks and
/// both loads.  Infinities (no path to a port) must be equal too.
void expect_exactly_reference(const Design& design) {
  const TimingContext ctx = design.timing_context();
  const StaResult flat = run_sta(ctx, design.tspec());
  const StaResult oracle = run_sta_reference(ctx, design.tspec());
  ASSERT_EQ(flat.tspec, oracle.tspec);
  ASSERT_EQ(flat.worst_arrival, oracle.worst_arrival);
  design.network().for_each_node([&](const Node& n) {
    const NodeId i = n.id;
    ASSERT_EQ(flat.arrival[i].rise, oracle.arrival[i].rise) << i;
    ASSERT_EQ(flat.arrival[i].fall, oracle.arrival[i].fall) << i;
    ASSERT_EQ(flat.lc_arrival[i].rise, oracle.lc_arrival[i].rise) << i;
    ASSERT_EQ(flat.lc_arrival[i].fall, oracle.lc_arrival[i].fall) << i;
    ASSERT_EQ(flat.required[i].rise, oracle.required[i].rise) << i;
    ASSERT_EQ(flat.required[i].fall, oracle.required[i].fall) << i;
    ASSERT_EQ(flat.slack[i], oracle.slack[i]) << i;
    ASSERT_EQ(flat.load[i], oracle.load[i]) << i;
    ASSERT_EQ(flat.lc_load[i], oracle.lc_load[i]) << i;
  });
}

TEST_F(IncrementalVsFullTest, ThreeLevelRandomFlipsMatchReferenceExactly) {
  // N-level ladders put converters on arbitrary upward rung boundaries
  // (rung 2 -> rung 1, rung 1 -> rung 0, rung 2 -> rung 0); every one of
  // them must time identically in the incremental engine, the flat
  // graph STA, and the seed reference oracle.
  Library lib3 = build_compass_library();
  lib3.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6}));
  HybridSpec spec;
  spec.gates = 160;
  spec.pis = 16;
  spec.pos = 8;
  spec.critical_fraction = 0.4;
  spec.seed = 314;
  Network net = build_hybrid_circuit(lib3, spec, "rnd3");
  Design design(std::move(net), lib3);
  IncrementalSta timer(design.timing_context(), design.tspec());
  ASSERT_TRUE(timer.matches_full_sta());
  expect_exactly_reference(design);

  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  ASSERT_FALSE(gates.empty());

  Rng rng(777);
  const SupplyId depth = static_cast<SupplyId>(lib3.supplies().depth());
  for (int committed = 0; committed < 120; ++committed) {
    const NodeId id = gates[rng.next_below(gates.size())];
    // Uniform re-draw over all three rungs, biased to actually move.
    SupplyId target = static_cast<SupplyId>(rng.next_below(depth));
    if (target == design.level(id))
      target = static_cast<SupplyId>((target + 1) % depth);
    design.set_level(id, target);
    timer.on_node_changed(id);
    ASSERT_TRUE(timer.matches_full_sta(1e-9))
        << "diverged after commit " << committed << " (node " << id << ")";
    if (committed % 10 == 0) expect_exactly_reference(design);
  }
  expect_exactly_reference(design);
  // The run exercised real multi-rung boundaries.
  const std::vector<int> counts = design.count_per_level();
  EXPECT_GT(counts[1] + counts[2], 0);
}

TEST_F(IncrementalVsFullTest, BulkLowerThenRepairMatchesFull) {
  // The Dscale commit pattern: lower a batch, then revert members one by
  // one; the timer must track every step.
  Network net = random_circuit(99, 0.3);
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());

  std::vector<NodeId> lowered;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0 && lowered.size() < 25) lowered.push_back(g.id);
  });
  for (NodeId id : lowered) {
    design.set_level(id, kLowRung);
    timer.on_node_changed(id);
  }
  ASSERT_TRUE(timer.matches_full_sta(1e-9));
  for (NodeId id : lowered) {
    design.set_level(id, kTopRung);
    timer.on_node_changed(id);
    ASSERT_TRUE(timer.matches_full_sta(1e-9));
  }
}

}  // namespace
}  // namespace dvs
