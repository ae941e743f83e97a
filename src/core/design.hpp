// Design: the central context object for multi-Vdd optimization.  Bundles
// the mapped network, the library, the per-gate supply-ladder assignment
// and the timing constraint, and offers timing / power / area evaluation
// of the *current* state.
//
// The supply state is the rungs and nothing else.  Level converters are
// kept virtual: every converter question (needs_lc, count_lcs,
// total_area, the STA, the power model) is answered from the rungs by
// the timing kernel's one pin rule, so algorithms can retarget voltages
// freely and nothing derived can go stale.  A gate needs a converter
// where it drives a gate on a shallower rung, unless that gate is a real
// converter cell; `materialize_level_converters` (boundary.hpp)
// instantiates the virtual ones as real gates for export.
#pragma once

#include <memory>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"
#include "power/activity.hpp"
#include "power/power_model.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"

namespace dvs {

class Design {
 public:
  /// Takes ownership of the mapped network.  Every gate starts at the
  /// ladder's top rung.  `tspec < 0` (default) freezes the constraint at
  /// the network's own mapped delay — the paper's experimental setup.
  Design(Network net, const Library& lib, double tspec = -1.0);

  const Network& network() const { return net_; }
  Network& network() { return net_; }
  const Library& library() const { return *lib_; }

  double tspec() const { return tspec_; }
  void set_tspec(double tspec) { tspec_ = tspec; }

  // ---- voltage assignment ----------------------------------------------
  /// Supply ladder shared with the library (rung 0 = highest voltage).
  const SupplyLadder& supplies() const { return lib_->supplies(); }

  SupplyId level(NodeId id) const;
  /// Sets the gate's rung; nothing else is stored.
  void set_level(NodeId id, SupplyId level);
  /// Gates below the top rung (the paper's "low" column; for a dual
  /// ladder exactly the vdd_low gates).
  int count_low() const;
  /// Gates at every rung (index = SupplyId).
  std::vector<int> count_per_level() const;

  /// True iff the pin from `driver` into its fanout `sink` runs through
  /// `driver`'s level converter under the current rungs (the kernel's pin
  /// rule, timing/kernel.hpp).
  bool through_converter(NodeId driver, NodeId sink) const;
  /// True iff some fanout pin of this node runs through its converter.
  bool needs_lc(NodeId id) const;
  /// Gates that need a converter: the virtual converters the rung
  /// assignment implies (real converter cells are gates, not counted).
  int count_lcs() const;

  /// Called after structural network edits (node insertion, sizing does
  /// not require it) to resize the per-node vectors.
  void sync_with_network();

  // ---- sizing ------------------------------------------------------------
  /// Cell each gate carried when the Design was constructed.
  int original_cell(NodeId id) const;
  /// Number of gates whose current cell differs from the original.
  int count_resized() const;

  // ---- evaluation ---------------------------------------------------------
  /// Compiled flat timing graph of the current network, recompiled
  /// automatically when the network's structural version moves (point
  /// changes — rungs, cells — patch in place instead).  The
  /// reference stays valid until the next structural edit or relocation
  /// of this Design; contexts from timing_context() share ownership and
  /// outlive recompiles.  Like the graph's sync methods, the lazy
  /// compile/sync here writes through const: timing a shared Design from
  /// several threads at once is not supported.
  const TimingGraph& timing_graph() const;

  TimingContext timing_context() const;
  StaResult run_timing() const;

  /// Switching activity is a function of logic only, so it is computed
  /// once (lazily) and reused across voltage/size changes.
  const Activity& activity() const;
  void set_activity_options(const ActivityOptions& options);
  /// Seeds the lazy activity cache with an estimate computed elsewhere.
  /// Caller contract: `activity` must equal what this design would
  /// compute itself — same logic network, same options, same topological
  /// order — as when several Designs of one job are copies of one mapped
  /// circuit.  A later structural edit (sync_with_network) discards it
  /// and recomputes as usual.
  void adopt_activity(Activity activity);

  /// The power model's view of the current state (spans into this
  /// Design, valid until its next structural edit or relocation); an
  /// EvalLedger built over it keeps power, area and gate counts current.
  PowerContext power_context() const;
  PowerBreakdown run_power() const;

  /// Total cell area including virtual level converters (um^2).
  double total_area() const;
  /// Area of the original, all-high, unsized design.
  double original_area() const { return original_area_; }

  double freq_mhz() const { return freq_mhz_; }
  void set_freq_mhz(double f) { freq_mhz_ = f; }

 private:
  Network net_;
  const Library* lib_;
  double tspec_ = 0.0;
  double freq_mhz_ = 20.0;
  std::vector<SupplyId> levels_;
  std::vector<int> original_cells_;
  double original_area_ = 0.0;
  /// Cache slot for the compiled graph: copies and moves of the Design
  /// start empty (the graph is keyed to the source's network object), so
  /// every other special member can stay defaulted.
  struct GraphSlot {
    GraphSlot() = default;
    GraphSlot(const GraphSlot&) noexcept {}
    GraphSlot(GraphSlot&&) noexcept {}
    GraphSlot& operator=(const GraphSlot&) noexcept {
      graph.reset();
      return *this;
    }
    GraphSlot& operator=(GraphSlot&&) noexcept {
      graph.reset();
      return *this;
    }
    mutable std::shared_ptr<TimingGraph> graph;
  };

  ActivityOptions activity_options_;
  mutable Activity activity_;
  mutable bool activity_valid_ = false;
  GraphSlot graph_;
};

}  // namespace dvs
