// CVS as the timer's reverse sweep, held to two oracles:
//   - the sweep primitive against fresh full walks: at every visit the
//     visited node's required time and slack equal run_sta's bit for bit,
//     also after seeded random rung moves of that node, on fresh designs
//     and on designs after Dscale (converters) and Gscale (resized
//     cells), at 2, 3 and 4 rungs; after the sweep every field matches;
//   - run_cvs_with_tcb against the eager loop it replaced
//     (tests/reference.hpp): equal levels, lowering counts and TCBs on
//     all 39 circuits x 3 ladders x {fresh, after Dscale}; run_cvs makes
//     the same decisions and leaves the TCB empty.
// The required-time work count pins the sweep's cost: one evaluation per
// live node plus one per lowering.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/cvs.hpp"
#include "core/dscale.hpp"
#include "core/gscale.hpp"
#include "reference.hpp"
#include "support/rng.hpp"
#include "timing/graph.hpp"
#include "timing/incremental.hpp"

namespace dvs {
namespace {

const std::vector<std::vector<double>> kLadders = {
    {5.0, 4.3}, {5.0, 4.3, 3.6}, {5.0, 4.6, 4.2, 3.8}};

Library ladder_library(const std::vector<double>& supplies) {
  Library lib = build_compass_library();
  lib.set_supply_ladder(SupplyLadder(supplies));
  return lib;
}

enum class Start { kFresh, kAfterDscale, kAfterGscale };

Design start_design(const Library& lib, const McncDescriptor& circuit,
                    Start start) {
  Design design(build_mcnc_circuit(lib, circuit), lib);
  if (start == Start::kAfterDscale) run_dscale(design);
  if (start == Start::kAfterGscale) run_gscale(design);
  return design;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Sweeps a forward-only timer over `design`, moving about a third of
/// the visited gates to a random other rung (the cluster rule is not
/// kept, so a moved node can gain or shed a converter, and so can its
/// fanins).  Returns the number of moves.
int sweep_with_random_moves(Design& design, std::uint64_t seed,
                            const std::string& what) {
  IncrementalSta timer(design.timing_context(), design.tspec(),
                       IncrementalSta::ForwardOnly{});
  const SupplyId depth = static_cast<SupplyId>(design.supplies().depth());
  Rng rng(seed);
  int moved = 0;
  const auto expect_pulled_exactly = [&](NodeId id, const char* when) {
    const StaResult fresh = run_sta(design.timing_context(), design.tspec());
    const StaResult& r = timer.result();
    EXPECT_EQ(bits(r.required[id].rise), bits(fresh.required[id].rise))
        << what << ", node " << id << " " << when;
    EXPECT_EQ(bits(r.required[id].fall), bits(fresh.required[id].fall))
        << what << ", node " << id << " " << when;
    EXPECT_EQ(bits(r.slack[id]), bits(fresh.slack[id]))
        << what << ", node " << id << " " << when;
    EXPECT_EQ(bits(r.worst_arrival), bits(fresh.worst_arrival))
        << what << ", node " << id << " " << when;
  };
  timer.sweep([&](NodeId id) {
    expect_pulled_exactly(id, "at its visit");
    const Node& node = design.network().node(id);
    if (!node.is_gate() || node.cell < 0 || !rng.next_bool(0.35)) return;
    const SupplyId current = design.level(id);
    design.set_level(id, static_cast<SupplyId>(
                             (current + 1 + rng.next_below(depth - 1)) %
                             depth));
    timer.on_node_changed(id);
    ++moved;
    expect_pulled_exactly(id, "after its move");
  });
  EXPECT_TRUE(timer.matches_full_sta(1e-9)) << what;
  return moved;
}

TEST(CvsSweep, EveryPullMatchesAFreshWalk) {
  std::uint64_t seed = 1;
  int with_converters = 0;
  int with_resized = 0;
  for (const std::vector<double>& supplies : kLadders) {
    const Library lib = ladder_library(supplies);
    for (const char* name : {"x2", "b9", "apex7"}) {
      for (const Start start :
           {Start::kFresh, Start::kAfterDscale, Start::kAfterGscale}) {
        Design design = start_design(lib, *find_mcnc(name), start);
        with_converters += design.count_lcs() > 0 ? 1 : 0;
        with_resized += design.count_resized() > 0 ? 1 : 0;
        const std::string what = std::string(name) + " at " +
                                 std::to_string(supplies.size()) +
                                 " rungs, start " +
                                 std::to_string(static_cast<int>(start));
        EXPECT_GT(sweep_with_random_moves(design, seed++, what), 0) << what;
      }
    }
  }
  // The starts exercised both kinds of state a fresh design lacks.
  EXPECT_GT(with_converters, 0);
  EXPECT_GT(with_resized, 0);
}

TEST(CvsSweep, MatchesTheEagerLoopOnEveryCircuitAndLadder) {
  int cases = 0;
  for (const std::vector<double>& supplies : kLadders) {
    const Library lib = ladder_library(supplies);
    for (const McncDescriptor& circuit : mcnc_suite()) {
      for (const Start start : {Start::kFresh, Start::kAfterDscale}) {
        const Design base = start_design(lib, circuit, start);
        Design swept = base;
        Design eager = base;
        Design bare = base;
        const CvsResult got = run_cvs_with_tcb(swept);
        const CvsResult want = run_cvs_reference(eager);
        const CvsResult without_tcb = run_cvs(bare);
        const std::string what =
            std::string(circuit.name) + " at " +
            std::to_string(supplies.size()) + " rungs" +
            (start == Start::kFresh ? "" : " after Dscale");
        EXPECT_EQ(got.num_lowered, want.num_lowered) << what;
        EXPECT_EQ(got.tcb, want.tcb) << what;
        EXPECT_EQ(without_tcb.num_lowered, got.num_lowered) << what;
        EXPECT_EQ(without_tcb.required_evaluations, got.required_evaluations)
            << what;
        EXPECT_TRUE(without_tcb.tcb.empty()) << what;
        bool same_levels = true;
        swept.network().for_each_gate([&](const Node& g) {
          if (swept.level(g.id) != eager.level(g.id) ||
              swept.level(g.id) != bare.level(g.id))
            same_levels = false;
        });
        EXPECT_TRUE(same_levels) << what;
        if (start == Start::kFresh) {
          EXPECT_TRUE(cvs_cluster_invariant_holds(swept)) << what;
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 234);
}

TEST(CvsSweep, PullsEachRequiredTimeOncePlusOncePerLowering) {
  const Library lib = build_compass_library();
  const McncDescriptor& des = *find_mcnc("des");
  Design swept(build_mcnc_circuit(lib, des), lib);
  Design eager = swept;
  const std::int64_t live =
      static_cast<std::int64_t>(swept.timing_graph().topo_order().size());

  const CvsResult got = run_cvs(swept);
  ASSERT_GT(got.num_lowered, 0);
  EXPECT_EQ(got.required_evaluations, live + got.num_lowered);

  // The eager loop's full start pulls every live node once too; its
  // flood then re-pulls more than one per lowering.
  const CvsResult want = run_cvs_reference(eager);
  ASSERT_EQ(want.num_lowered, got.num_lowered);
  EXPECT_GT(want.required_evaluations, got.required_evaluations);
}

TEST(CvsSweep, CvsLeavesASettledTimerBehind) {
  // After a CVS-shaped sweep the timer is back to eager updates, and
  // both stay equal to full walks in every field.
  const Library lib = build_compass_library();
  Design design(build_mcnc_circuit(lib, *find_mcnc("alu4")), lib);
  IncrementalSta timer(design.timing_context(), design.tspec(),
                       IncrementalSta::ForwardOnly{});
  int lowered = 0;
  timer.sweep([&](NodeId id) {
    const Node& gate = design.network().node(id);
    if (!gate.is_gate() || gate.cell < 0) return;
    for (NodeId fo : gate.fanouts)
      if (design.network().node(fo).is_gate() &&
          design.level(fo) == kTopRung)
        return;
    if (timer.result().slack[id] < 0.5) return;
    design.set_level(id, design.supplies().deepest());
    timer.on_node_changed(id);
    ++lowered;
  });
  ASSERT_GT(lowered, 0);
  EXPECT_TRUE(timer.matches_full_sta(1e-9));

  std::vector<NodeId> low;
  design.network().for_each_gate([&](const Node& g) {
    if (design.level(g.id) != kTopRung) low.push_back(g.id);
  });
  for (std::size_t k = 0; k < low.size() && k < 20; ++k) {
    design.set_level(low[k], kTopRung);
    timer.on_node_changed(low[k]);
    ASSERT_TRUE(timer.matches_full_sta(1e-9)) << "after raise " << k;
  }
}

}  // namespace
}  // namespace dvs
