// Clustered Voltage Scaling (Usami & Horowitz, ISLPED'95) — the paper's
// baseline and the inner engine of Gscale, generalized to the supply
// ladder.  Traverses from the primary outputs; a gate may drop to the
// deepest rung that is (a) no deeper than any of its gate fanouts
// (keeping each cluster contingent to the POs, so no internal level
// converter is ever needed) and (b) within its slack.  On the default
// dual ladder this is exactly the paper's high->low test.
#pragma once

#include <cstdint>
#include <vector>

#include "core/design.hpp"

namespace dvs {

struct CvsOptions {
  /// Safety margin subtracted from the slack before accepting (ns).
  double slack_margin = 1e-9;
};

struct CvsResult {
  int num_lowered = 0;  // gates lowered by this invocation
  /// Timing-critical boundary at exit (see timing/tcb.hpp); empty unless
  /// run_cvs_with_tcb computed it.
  std::vector<NodeId> tcb;
  /// Required times the run evaluated: one per live node, plus one per
  /// lowering (a work count; see IncrementalSta::sweep).
  std::int64_t required_evaluations = 0;
};

/// Runs CVS on the design's current state; safe to call repeatedly.
CvsResult run_cvs(Design& design, const CvsOptions& options = {});

/// run_cvs, plus the timing-critical boundary at exit, computed from the
/// run's own final timing (Gscale re-invokes it after every sizing step
/// to push the TCB).
CvsResult run_cvs_with_tcb(Design& design, const CvsOptions& options = {});

/// Invariant checker used by tests: no gate needs a level converter, i.e.
/// none sits deeper than a gate it drives (cluster contingency; a real
/// converter cell ends the boundary, Design::through_converter).
bool cvs_cluster_invariant_holds(const Design& design);

}  // namespace dvs
