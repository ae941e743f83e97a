// The timing kernel: the per-node rules every timing analysis applies.
// The full walk (run_sta), the event-driven IncrementalSta, the power
// model (compute_power, EvalLedger), the CPN extractor, Gscale's revert
// search and Dscale's lowering model all call these rules; they differ
// only in which nodes they visit, in what order, and where they keep the
// per-node state.  A node's supply is its ladder rung, read from the
// context's `node_level`; its delay factor is the rung's entry of
// SupplyLadder::delay_factors, and a fanout pin runs through its driver's
// level converter by the ladder's one rule (SupplyLadder::
// converter_needed).  Each rule reads nothing but its operands, so two
// analyses that visit a node with the same operands get the same doubles.
// Internal header (not part of the public API surface).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>

#include "library/cell.hpp"
#include "library/supply.hpp"
#include "netlist/network.hpp"
#include "support/contracts.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"

namespace dvs::timing_detail {

// ---- arc primitives ------------------------------------------------------

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kDefaultPinCap = 6.0;  // fF, unmapped gates
/// Capacitive load each driven primary-output port charges its driver
/// with (fF), as the load rule charges it.
inline constexpr double kOutputPortLoad = 25.0;

/// Timing arc used for not-yet-mapped gates so the STA still runs.
inline TimingArc default_arc(const TruthTable& tt, int pin) {
  TimingArc arc;
  const bool pos = is_positive_unate(tt, pin);
  const bool neg = is_negative_unate(tt, pin);
  arc.sense = pos && !neg   ? ArcSense::kPositiveUnate
              : neg && !pos ? ArcSense::kNegativeUnate
                            : ArcSense::kNonUnate;
  arc.intrinsic_rise = 0.22;
  arc.intrinsic_fall = 0.18;
  arc.resistance_rise = 0.008;
  arc.resistance_fall = 0.007;
  return arc;
}

struct ArcView {
  const TimingArc& arc;
  double vdd_factor;
  double load;

  RiseFall delay() const {
    return RiseFall{
        vdd_factor * (arc.intrinsic_rise + arc.resistance_rise * load),
        vdd_factor * (arc.intrinsic_fall + arc.resistance_fall * load)};
  }
};

/// Combines an input-pin arrival with an arc into the output arrival
/// contribution of that pin.
inline RiseFall propagate(const RiseFall& in, const TimingArc& arc,
                          const RiseFall& d) {
  switch (arc.sense) {
    case ArcSense::kPositiveUnate:
      return {in.rise + d.rise, in.fall + d.fall};
    case ArcSense::kNegativeUnate:
      return {in.fall + d.rise, in.rise + d.fall};
    case ArcSense::kNonUnate:
    default: {
      const double worst = std::max(in.rise, in.fall);
      return {worst + d.rise, worst + d.fall};
    }
  }
}

/// Backward counterpart: latest allowed arrival at the input pin given
/// the required time at the output.
inline RiseFall back_propagate(const RiseFall& out_req,
                               const TimingArc& arc, const RiseFall& d) {
  switch (arc.sense) {
    case ArcSense::kPositiveUnate:
      return {out_req.rise - d.rise, out_req.fall - d.fall};
    case ArcSense::kNegativeUnate:
      return {out_req.fall - d.fall, out_req.rise - d.rise};
    case ArcSense::kNonUnate:
    default: {
      const double r =
          std::min(out_req.rise - d.rise, out_req.fall - d.fall);
      return {r, r};
    }
  }
}

/// min(required - arrival) over the two edges.
inline double slack(const RiseFall& arrival, const RiseFall& required) {
  return std::min(required.rise - arrival.rise,
                  required.fall - arrival.fall);
}

// ---- the stale-graph rule ------------------------------------------------

/// The graph every analysis of `ctx` runs on: `ctx.graph` when it is a
/// current compilation of `ctx`'s network and library, else `own` —
/// recompiled first unless it already is one.  Either way the returned
/// graph's cell snapshot is synced, so results never depend on the
/// freshness of what the caller passed in.
const TimingGraph& current_graph(const TimingContext& ctx,
                                 std::unique_ptr<const TimingGraph>& own);

// ---- the per-node rules --------------------------------------------------

/// One node's load, split between its own output stage and its level
/// converter.
struct LoadSplit {
  double direct = 0.0;  // fF seen by the node's own output stage
  double lc = 0.0;      // fF seen by its level converter
  int lc_pins = 0;      // fanout pins routed through the converter
};

/// The rules bound to one compiled graph and one context's live spans.
/// The generic load form takes the operands a what-if model overrides
/// (pin caps, converter routing); the node-id forms apply the rules to
/// the committed state held in a StaResult.
class NodeRules {
 public:
  NodeRules(const TimingContext& ctx, const TimingGraph& g);

  const TimingGraph& graph() const { return *g_; }
  /// Delay factor of `id`'s rung.
  double factor(NodeId id) const { return factor_[level_[id]]; }
  /// The converter rule: the pin runs through the driver's converter
  /// exactly when a gate drives a gate on a strictly shallower rung (the
  /// rule Design's converter flags follow; only gates have fanins).
  bool through_converter(NodeId driver, NodeId sink) const {
    return SupplyLadder::converter_needed(level_[driver], level_[sink]) &&
           g_->is_gate(driver);
  }

  /// The load rule.  `cap(e)` is the pin cap of `u`'s e-th fanout entry
  /// and `through(pin)` routes that entry; the caps fold in entry order
  /// (the seed's canonical visit order), then one kOutputPortLoad per
  /// driven port, then the converter's input pin and one wire load per
  /// side.
  template <class Cap, class Through>
  LoadSplit load(NodeId u, Cap cap, Through through) const {
    const std::span<const TimingGraph::FanoutPin> pins = g_->fanout_pins(u);
    LoadSplit s;
    int direct_pins = 0;
    for (std::size_t e = 0; e < pins.size(); ++e) {
      const double c = cap(e);
      if (through(pins[e])) {
        s.lc += c;
        ++s.lc_pins;
      } else {
        s.direct += c;
        ++direct_pins;
      }
    }
    for (int k = 0; k < g_->port_fanout_count(u); ++k) {
      s.direct += kOutputPortLoad;
      ++direct_pins;
    }
    if (s.lc_pins > 0) {
      DVS_ASSERT(lc_arc_ != nullptr);
      s.direct += lc_cap_;
      ++direct_pins;
      s.lc += lib_->wire_load().wire_cap(s.lc_pins);
    }
    s.direct += lib_->wire_load().wire_cap(direct_pins);
    return s;
  }
  /// The load rule on the committed caps and rungs.
  LoadSplit load(NodeId u) const {
    const std::span<const double> caps = g_->fanout_pin_caps(u);
    return load(
        u, [&](std::size_t e) { return caps[e]; },
        [&](const TimingGraph::FanoutPin& p) {
          return through_converter(u, p.sink);
        });
  }

  /// The arrival rule: the max over `id`'s pins of the fanin's arrival
  /// (its converter's output when the pin routes through it) through the
  /// pin's arc at `id`'s supply factor into `r.load[id]`.  Inputs,
  /// constants and fanin-less gates arrive at t=0.
  RiseFall arrival(NodeId id, const StaResult& r) const {
    const std::span<const NodeId> fi = g_->fanins(id);
    if (!g_->is_gate(id) || fi.empty()) return {0.0, 0.0};
    const std::span<const TimingArc> arcs = g_->arcs(id);
    const double vf = factor(id);
    const double load = r.load[id];
    RiseFall arr{-kInf, -kInf};
    for (std::size_t pin = 0; pin < fi.size(); ++pin) {
      const NodeId u = fi[pin];
      const RiseFall& in =
          through_converter(u, id) ? r.lc_arrival[u] : r.arrival[u];
      const RiseFall cand =
          propagate(in, arcs[pin], ArcView{arcs[pin], vf, load}.delay());
      arr.rise = std::max(arr.rise, cand.rise);
      arr.fall = std::max(arr.fall, cand.fall);
    }
    return arr;
  }

  /// The LC-arrival rule: the output of a node's converter, defined when
  /// load sits behind it (pin and wire caps are positive, so that is
  /// exactly when a fanout pin routes through it).
  RiseFall lc_arrival(const RiseFall& arr, double lc_load) const {
    if (!(lc_load > 0.0)) return {};
    return propagate(arr, *lc_arc_, lc_delay(lc_load));
  }

  /// The required-time rule, in pull form: the min of `r.tspec` once per
  /// driven port and of each fanout pin's requirement back-propagated
  /// through the sink's arc (and through `u`'s converter when the pin
  /// routes through it).  A push-form walk folds the same operands; with
  /// no NaNs the order of a min moves no bit.
  RiseFall required(NodeId u, const StaResult& r) const {
    RiseFall req{kInf, kInf};
    for (int k = 0; k < g_->port_fanout_count(u); ++k) {
      req.rise = std::min(req.rise, r.tspec);
      req.fall = std::min(req.fall, r.tspec);
    }
    for (const TimingGraph::FanoutPin& p : g_->fanout_pins(u)) {
      const TimingArc& arc = g_->arcs(p.sink)[p.pin];
      RiseFall pin_req = back_propagate(
          r.required[p.sink], arc,
          ArcView{arc, factor(p.sink), r.load[p.sink]}.delay());
      if (through_converter(u, p.sink))
        pin_req = back_propagate(pin_req, *lc_arc_, lc_delay(r.lc_load[u]));
      req.rise = std::min(req.rise, pin_req.rise);
      req.fall = std::min(req.fall, pin_req.fall);
    }
    return req;
  }

 private:
  /// Converters run at the top rung, whatever rungs they bridge.
  RiseFall lc_delay(double lc_load) const {
    return ArcView{*lc_arc_, factor_[kTopRung], lc_load}.delay();
  }

  const TimingGraph* g_;
  const Library* lib_;
  std::span<const SupplyId> level_;
  /// SupplyLadder::delay_factors, indexed by rung; a fixed array, so the
  /// rules copy without allocating.
  std::array<double, SupplyLadder::kMaxRungs> factor_{};
  const TimingArc* lc_arc_ = nullptr;  // null without a converter cell
  double lc_cap_ = 0.0;                // converter input pin cap
};

/// Forward half of a full analysis in rank order: every live node's load
/// split, arrival and converter arrival, plus the worst port arrival.
/// Sizes r.load / lc_load / arrival / lc_arrival to the network.
void walk_forward(const NodeRules& rules, StaResult& r);

/// Where the backward half starts: sets r.tspec (a negative `tspec` takes
/// the worst arrival) and every required time and slack to +inf.
void start_backward(StaResult& r, double tspec);

}  // namespace dvs::timing_detail
