// The inner kernels' allocation contract, checked with a counting global
// operator new (this test is its own executable, so the replacement sees
// every allocation the library makes in this process):
//   - IncrementalSta::on_node_changed allocates nothing once the engine
//     is built: its worklists and queued marks are sized per compiled
//     graph, not per update; nor does a reverse sweep with CVS-shaped
//     lowerings;
//   - nor does an EvalLedger update beside it, or reading its totals;
//   - one min_weight_separator / max_weight_antichain solve makes a
//     bounded number of allocations however many arcs it lays out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/design.hpp"
#include "flow_instances.hpp"
#include "power/eval_ledger.hpp"
#include "support/rng.hpp"
#include "timing/incremental.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Kept out of line so the compiler never pairs an inlined free() with a
// new-expression it saw elsewhere.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dvs {
namespace {

/// Allocations made while running `body`.
template <typename F>
long allocations_in(F&& body) {
  const long before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

TEST(KernelAllocations, IncrementalUpdatesAllocateNothing) {
  const Library lib = build_compass_library();
  Design design(build_mcnc_circuit(lib, *find_mcnc("C7552")), lib);
  IncrementalSta timer(design.timing_context(), design.tspec());
  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });

  Rng rng(7552);
  long total = 0;
  for (int step = 0; step <= 200; ++step) {
    const NodeId id = gates[rng.next_below(gates.size())];
    const int cell = design.network().node(id).cell;
    const int resized = rng.next_bool() ? lib.upsize(cell) : -1;
    if (resized >= 0)
      design.network().set_cell(id, resized);
    else
      design.set_level(id, design.level(id) == kTopRung
                               ? design.supplies().deepest()
                               : kTopRung);
    const long made = allocations_in([&] { timer.on_node_changed(id); });
    if (step > 0) total += made;  // step 0 is the first call
  }
  EXPECT_EQ(total, 0);
  EXPECT_TRUE(timer.matches_full_sta());
}

TEST(KernelAllocations, SweepAllocatesNothing) {
  const Library lib = build_compass_library();
  Design design(build_mcnc_circuit(lib, *find_mcnc("C7552")), lib);
  IncrementalSta timer(design.timing_context(), design.tspec(),
                       IncrementalSta::ForwardOnly{});
  const SupplyId deepest = design.supplies().deepest();
  int lowered = 0;
  const long made = allocations_in([&] {
    timer.sweep([&](NodeId id) {
      // CVS's shape: drop a gate whose gate fanouts are all low already,
      // when its slack leaves room.
      const Node& gate = design.network().node(id);
      if (!gate.is_gate() || gate.cell < 0) return;
      for (NodeId fo : gate.fanouts)
        if (design.network().node(fo).is_gate() &&
            design.level(fo) != deepest)
          return;
      if (timer.result().slack[id] < 0.3) return;
      design.set_level(id, deepest);
      timer.on_node_changed(id);
      ++lowered;
    });
  });
  EXPECT_EQ(made, 0);
  EXPECT_GT(lowered, 0);
  EXPECT_TRUE(timer.matches_full_sta());
}

TEST(KernelAllocations, LedgerUpdatesAllocateNothing) {
  const Library lib = build_compass_library();
  Design design(build_mcnc_circuit(lib, *find_mcnc("C7552")), lib);
  IncrementalSta timer(design.timing_context(), design.tspec());
  EvalLedger ledger(design.power_context());
  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });

  Rng rng(7553);
  long total = 0;
  double power = 0.0;
  for (int step = 0; step < 200; ++step) {
    const NodeId id = gates[rng.next_below(gates.size())];
    const int cell = design.network().node(id).cell;
    const int resized = rng.next_bool() ? lib.downsize(cell) : -1;
    if (resized >= 0)
      design.network().set_cell(id, resized);
    else
      design.set_level(id, design.level(id) == kTopRung
                               ? design.supplies().deepest()
                               : kTopRung);
    timer.on_node_changed(id);
    total += allocations_in([&] {
      ledger.on_node_changed(id);
      const EvalLedger::Totals totals = ledger.totals();
      power += totals.power.total() + totals.area;
    });
  }
  EXPECT_EQ(total, 0);
  EXPECT_GT(power, 0.0);
  EXPECT_EQ(ledger.totals().power.total(), design.run_power().total());
}

class SolveAllocations : public ::testing::TestWithParam<int> {};

TEST_P(SolveAllocations, SeparatorAndAntichainAreBounded) {
  constexpr long kMaxPerSolve = 128;
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  const SeparatorProblem sp = separator_instance(n, rng);
  const AntichainProblem ap = antichain_instance(n, rng);

  SeparatorResult sr;
  const long sep = allocations_in([&] { sr = min_weight_separator(sp); });
  EXPECT_LE(sep, kMaxPerSolve) << n << " nodes";
  EXPECT_FALSE(sr.selected.empty());

  AntichainResult ar;
  const long ac = allocations_in([&] { ar = max_weight_antichain(ap); });
  EXPECT_LE(ac, kMaxPerSolve) << n << " nodes";
  EXPECT_FALSE(ar.selected.empty());
}

// About 1.5k and 150k separator arcs: one split arc per node, one arc
// per DAG edge (1.5 per node), plus the source and sink hookups.
INSTANTIATE_TEST_SUITE_P(Sizes, SolveAllocations,
                         ::testing::Values(500, 50000));

}  // namespace
}  // namespace dvs
