// The timing kernel: the per-node rules every timing analysis applies.
// The full walk (run_sta), the event-driven IncrementalSta, the load pass
// (compute_loads), the CPN extractor, Gscale's revert search and
// Dscale's lowering model all call these rules; they differ only in which
// nodes they visit, in what order, and where they keep the per-node
// state.  Each rule reads nothing but its operands, so two analyses that
// visit a node with the same operands get the same doubles.  Internal
// header (not part of the public API surface).
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>

#include "library/cell.hpp"
#include "library/supply.hpp"
#include "library/voltage_model.hpp"
#include "netlist/network.hpp"
#include "support/contracts.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"

namespace dvs::timing_detail {

// ---- arc primitives ------------------------------------------------------

/// Per-rung memo for VoltageModel::delay_factor.  The model evaluates two
/// non-integer powers per call and the sweeps call it once per gate per
/// direction, yet a design only ever carries the supply ladder's handful
/// of distinct voltages — so nearly every call is a repeat.  Constructed
/// from a ladder, the table is pre-seeded with one slot per rung; keyed
/// on the exact double, lookups return bit-identical results to calling
/// the model directly.  Voltages outside the ladder (ad-hoc contexts)
/// still memoize into the spare slots.
class DelayFactorCache {
 public:
  DelayFactorCache(const VoltageModel& vm, const SupplyLadder& ladder)
      : vm_(&vm) {
    for (SupplyId r = 0; r < ladder.depth(); ++r) {
      v_[size_] = ladder.voltage(r);
      f_[size_] = vm.delay_factor(v_[size_]);
      ++size_;
    }
  }

  double operator()(double vdd) {
    for (int i = 0; i < size_; ++i)
      if (v_[i] == vdd) return f_[i];
    const double f = vm_->delay_factor(vdd);
    const int slot = size_ < kSlots ? size_++ : kSlots - 1;
    v_[slot] = vdd;
    f_[slot] = f;
    return f;
  }

 private:
  // Every ladder rung plus two spare slots for off-ladder probes.
  static constexpr int kSlots = SupplyLadder::kMaxRungs + 2;

  const VoltageModel* vm_;
  int size_ = 0;
  double v_[kSlots] = {};
  double f_[kSlots] = {};
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kVoltEps = 1e-6;
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

/// The through-converter test: an arc from a driver carrying a level
/// converter into a sink at a strictly higher supply runs through the
/// converter.
inline bool through_converter(bool driver_has_lc, double driver_vdd,
                              double sink_vdd) {
  return driver_has_lc && sink_vdd > driver_vdd + kVoltEps;
}

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
  double factor(double vdd) { return factor_(vdd); }
  bool has_lc(NodeId id) const { return !lc_on_.empty() && lc_on_[id] != 0; }
  bool through_converter(NodeId driver, NodeId sink) const {
    return timing_detail::through_converter(has_lc(driver), vdd_[driver],
                                            vdd_[sink]);
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
  /// The load rule on the committed caps and supplies.
  LoadSplit load(NodeId u) const {
    const std::span<const double> caps = g_->fanout_pin_caps(u);
    const bool lc = has_lc(u);
    const double vdd = vdd_[u];
    return load(
        u, [&](std::size_t e) { return caps[e]; },
        [&](const TimingGraph::FanoutPin& p) {
          return timing_detail::through_converter(lc, vdd, vdd_[p.sink]);
        });
  }

  /// The arrival rule: the max over `id`'s pins of the fanin's arrival
  /// (its converter's output when the pin routes through it) through the
  /// pin's arc at `id`'s supply factor into `r.load[id]`.  Inputs,
  /// constants and fanin-less gates arrive at t=0.
  RiseFall arrival(NodeId id, const StaResult& r) {
    const std::span<const NodeId> fi = g_->fanins(id);
    if (!g_->is_gate(id) || fi.empty()) return {0.0, 0.0};
    const std::span<const TimingArc> arcs = g_->arcs(id);
    const double vf = factor_(vdd_[id]);
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
  /// the node carries one with load behind it (pin and wire caps are
  /// positive, so that is exactly when a fanout pin routes through it).
  RiseFall lc_arrival(bool carries_lc, const RiseFall& arr,
                      double lc_load) const {
    if (!carries_lc || !(lc_load > 0.0)) return {};
    return propagate(arr, *lc_arc_, lc_delay(lc_load));
  }

  /// The required-time rule, in pull form: the min of `r.tspec` once per
  /// driven port and of each fanout pin's requirement back-propagated
  /// through the sink's arc (and through `u`'s converter when the pin
  /// routes through it).  A push-form walk folds the same operands; with
  /// no NaNs the order of a min moves no bit.
  RiseFall required(NodeId u, const StaResult& r) {
    RiseFall req{kInf, kInf};
    for (int k = 0; k < g_->port_fanout_count(u); ++k) {
      req.rise = std::min(req.rise, r.tspec);
      req.fall = std::min(req.fall, r.tspec);
    }
    const bool lc = has_lc(u);
    const double vdd = vdd_[u];
    for (const TimingGraph::FanoutPin& p : g_->fanout_pins(u)) {
      const TimingArc& arc = g_->arcs(p.sink)[p.pin];
      const double vf = factor_(vdd_[p.sink]);
      RiseFall pin_req = back_propagate(
          r.required[p.sink], arc, ArcView{arc, vf, r.load[p.sink]}.delay());
      if (timing_detail::through_converter(lc, vdd, vdd_[p.sink]))
        pin_req = back_propagate(pin_req, *lc_arc_, lc_delay(r.lc_load[u]));
      req.rise = std::min(req.rise, pin_req.rise);
      req.fall = std::min(req.fall, pin_req.fall);
    }
    return req;
  }

 private:
  RiseFall lc_delay(double lc_load) const {
    return ArcView{*lc_arc_, lc_factor_, lc_load}.delay();
  }

  const TimingGraph* g_;
  const Library* lib_;
  std::span<const double> vdd_;
  std::span<const char> lc_on_;
  DelayFactorCache factor_;
  const TimingArc* lc_arc_ = nullptr;  // null without a converter cell
  double lc_cap_ = 0.0;                // converter input pin cap
  double lc_factor_ = 0.0;             // delay factor at vdd_high
};

/// Forward half of a full analysis in rank order: every live node's load
/// split, arrival and converter arrival, plus the worst port arrival.
/// Sizes r.load / lc_load / arrival / lc_arrival to the network.
void walk_forward(NodeRules& rules, StaResult& r);

/// Where the backward half starts: sets r.tspec (a negative `tspec` takes
/// the worst arrival) and every required time and slack to +inf.
void start_backward(StaResult& r, double tspec);

}  // namespace dvs::timing_detail
