// Dscale (paper §2): voltage scaling on the non-critical part of the
// circuit beyond the CVS cluster.  Each round collects every gate whose
// lowering — including the level converter a new low->high boundary
// requires — fits its timing slack and yields a positive power gain,
// weights candidates by that gain, and lowers a maximum-weight antichain
// of them (no two on a common path, so slack is never double-spent).
// Rounds repeat until no candidate remains.
#pragma once

#include "core/cvs.hpp"
#include "core/design.hpp"
#include "graph/flow_network.hpp"

namespace dvs {

class IncrementalSta;

struct DscaleOptions {
  CvsOptions cvs;
  /// Minimum weight (uW) for a gate to become a candidate.
  double min_gain_uw = 1e-6;
  /// Paper-faithful weighting uses the *gross* power reduction of applying
  /// Vlow to the gate ("the power reduction when Vlow is applied"); the
  /// level-converter cost then shows up only in the final measurement —
  /// the paper itself notes the extra gates "can not be completely turned
  /// into power savings".  Setting this true charges each candidate its
  /// converter power up front (ablation E3b): more conservative, fewer
  /// gates lowered.
  bool lc_aware_weights = false;
  /// Safety margin subtracted from slack (ns).
  double slack_margin = 1e-9;
  /// Bound on MWIS rounds (0 = unbounded, the paper's loop-to-fixpoint).
  int max_rounds = 0;
  /// Independent-set engine; the greedy variant exists for the ablation
  /// benchmark (E3 in DESIGN.md).
  enum class Selector { kMwisFlow, kGreedy } selector = Selector::kMwisFlow;
  FlowAlgo flow_algo = FlowAlgo::kDinic;
  /// Run the initial CVS pass (the paper always does; the ablation bench
  /// disables it to isolate the MWIS contribution).
  bool run_initial_cvs = true;
  /// Final cleanup: raise back boundary gates whose converter costs more
  /// than their cluster saves (raising is always timing-safe).  Keeps
  /// Dscale never-worse-than-CVS, matching the paper's Table 1.
  bool trim_unprofitable = true;
};

struct DscaleResult {
  int cvs_lowered = 0;   // gates lowered by the initial CVS pass
  int mwis_lowered = 0;  // gates lowered by the MWIS rounds
  int rounds = 0;        // MWIS iterations executed
};

DscaleResult run_dscale(Design& design, const DscaleOptions& options = {});

/// Dscale's final cleanup, also the registry's `trim` pass: raises each
/// converter-carrying gate to the shallowest rung among its gate fanouts
/// while doing so reduces total power, re-verifying timing per raise
/// through `timer`.  Returns the number of gates raised.
int trim_boundary(Design& design, IncrementalSta& timer);

}  // namespace dvs
