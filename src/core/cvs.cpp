#include "core/cvs.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "timing/incremental.hpp"
#include "timing/tcb.hpp"

namespace dvs {

namespace {

/// Deepest rung `gate` may sit on without ever needing a converter: the
/// cluster rule bounds a driver by its shallowest gate fanout (port
/// fanouts are block boundaries and do not bind).
SupplyId cluster_rung_limit(const Design& design, const Node& gate) {
  SupplyId limit = design.supplies().deepest();
  for (NodeId fo : gate.fanouts) {
    const Node& sink = design.network().node(fo);
    if (sink.is_gate()) limit = std::min(limit, design.level(fo));
  }
  return limit;
}

CvsResult cvs_sweep(Design& design, const CvsOptions& options,
                    bool with_tcb) {
  const Network& net = design.network();
  CvsResult result;

  // The breadth-first traversal from the POs is realized as the timer's
  // reverse sweep: every gate is visited after all of its fanouts, so the
  // cluster rung limit sees final decisions, and the sweep pulls the
  // gate's required time just before the visit.  A lowering re-times
  // loads and arrivals at once, which keeps every acceptance sound
  // against the *committed* state (the paper's incurred-penalty check).
  IncrementalSta timer(design.timing_context(), design.tspec(),
                       IncrementalSta::ForwardOnly{});
  const Library& lib = design.library();
  // Per-rung delay factors, hoisted out of the per-gate loop.
  const std::vector<double> factor =
      lib.supplies().delay_factors(lib.voltage_model());
  timer.sweep([&](NodeId id) {
    const Node& gate = net.node(id);
    if (!gate.is_gate() || gate.cell < 0) return;
    const SupplyId current = design.level(gate.id);
    const SupplyId limit = cluster_rung_limit(design, gate);
    if (limit <= current) return;  // already as deep as the cluster allows
    // Deepest feasible rung first: the furthest the slack lets this gate
    // drop.  For the dual ladder this is exactly the paper's single
    // high->low test.
    for (SupplyId target = limit; target > current; --target) {
      const StaResult& sta = timer.result();
      const double increase = worst_delay_increase(
          factor[current], factor[target], lib.cell(gate.cell),
          sta.load[gate.id]);
      if (increase + options.slack_margin > sta.slack[gate.id]) continue;
      design.set_level(gate.id, target);
      DVS_ASSERT(!design.needs_lc(gate.id));  // cluster rule: never an LC
      timer.on_node_changed(gate.id);
      DVS_ASSERT(timer.result().meets_constraint(1e-6));
      ++result.num_lowered;
      break;
    }
  });
  if (with_tcb)
    result.tcb = compute_tcb(design.timing_context(), timer.result());
  result.required_evaluations = timer.required_evaluations();
  return result;
}

}  // namespace

CvsResult run_cvs(Design& design, const CvsOptions& options) {
  return cvs_sweep(design, options, /*with_tcb=*/false);
}

CvsResult run_cvs_with_tcb(Design& design, const CvsOptions& options) {
  return cvs_sweep(design, options, /*with_tcb=*/true);
}

bool cvs_cluster_invariant_holds(const Design& design) {
  return design.count_lcs() == 0;
}

}  // namespace dvs
