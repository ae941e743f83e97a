// Seed (pre-compiled-graph) timing walks, kept verbatim as the oracle for
// the flat-graph engines: pointer-chasing AoS traversal, per-visit fanout
// deduplication, per-arc library resolution.  The randomized equivalence
// suites (timing_graph_test, incremental_vs_full_test) require the
// kernel's full walk to reproduce these bit-for-bit.  The oracle keeps
// the seed's supply model: it derives a voltage per node and a converter
// flag per gate from the context's rungs, and routes a pin through a
// converter when its driver is flagged and the sink's voltage is higher,
// so it checks the kernel's rung rule from outside.
// Also the eager CVS loop, the oracle for run_cvs's reverse sweep.
#pragma once

#include <algorithm>
#include <cmath>

#include "core/cvs.hpp"
#include "netlist/topo.hpp"
#include "support/contracts.hpp"
#include "timing/incremental.hpp"
#include "timing/kernel.hpp"
#include "timing/sta.hpp"
#include "timing/tcb.hpp"

namespace dvs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kVoltEps = 1e-6;

using timing_detail::ArcView;
using timing_detail::back_propagate;
using timing_detail::default_arc;
using timing_detail::kDefaultPinCap;
using timing_detail::propagate;

double pin_cap(const Library& lib, const Node& sink, int pin) {
  if (sink.cell >= 0) return lib.cell(sink.cell).input_cap[pin];
  return kDefaultPinCap;
}

}  // namespace

/// The seed's per-node supply state, derived from the context's rungs:
/// each node's ladder voltage, and a converter flag on each gate that
/// drives a gate on a strictly shallower rung.
struct ReferenceSupplies {
  std::vector<double> vdd;
  std::vector<char> lc;

  explicit ReferenceSupplies(const TimingContext& ctx) {
    const Network& net = *ctx.net;
    const SupplyLadder& ladder = ctx.lib->supplies();
    DVS_EXPECTS(static_cast<int>(ctx.node_level.size()) >= net.size());
    vdd.assign(net.size(), ladder.top());
    lc.assign(net.size(), 0);
    net.for_each_node([&](const Node& u) {
      vdd[u.id] = ladder.voltage(ctx.node_level[u.id]);
      if (!u.is_gate()) return;
      for (NodeId fo : u.fanouts)
        if (net.node(fo).is_gate() &&
            ctx.node_level[fo] < ctx.node_level[u.id])
          lc[u.id] = 1;
    });
  }

  bool through_lc(NodeId driver, NodeId sink) const {
    return lc[driver] != 0 && vdd[sink] > vdd[driver] + kVoltEps;
  }
};

/// The seed's load split per node.
struct ReferenceLoads {
  std::vector<double> direct;
  std::vector<double> lc;
  std::vector<int> lc_fanout_pins;
};

/// Load computation over the raw Network, ignoring any ctx.graph.
inline ReferenceLoads compute_loads_reference(const TimingContext& ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  const int n = net.size();
  const ReferenceSupplies supplies(ctx);

  ReferenceLoads loads;
  loads.direct.assign(n, 0.0);
  loads.lc.assign(n, 0.0);
  loads.lc_fanout_pins.assign(n, 0);
  std::vector<int> direct_count(n, 0);

  net.for_each_node([&](const Node& u) {
    for_each_unique_fanout(u, [&](NodeId vid) {
      const Node& v = net.node(vid);
      for (std::size_t pin = 0; pin < v.fanins.size(); ++pin) {
        if (v.fanins[pin] != u.id) continue;
        const double cap = pin_cap(lib, v, static_cast<int>(pin));
        if (supplies.through_lc(u.id, vid)) {
          loads.lc[u.id] += cap;
          ++loads.lc_fanout_pins[u.id];
        } else {
          loads.direct[u.id] += cap;
          ++direct_count[u.id];
        }
      }
    });
  });
  for (const OutputPort& port : net.outputs()) {
    loads.direct[port.driver] += timing_detail::kOutputPortLoad;
    ++direct_count[port.driver];
  }
  const Cell* lc_cell =
      lib.level_converter() >= 0 ? &lib.cell(lib.level_converter()) : nullptr;
  net.for_each_node([&](const Node& u) {
    if (loads.lc_fanout_pins[u.id] > 0) {
      DVS_ASSERT(lc_cell != nullptr);
      loads.direct[u.id] += lc_cell->input_cap[0];
      ++direct_count[u.id];
      loads.lc[u.id] += lib.wire_load().wire_cap(loads.lc_fanout_pins[u.id]);
    }
    loads.direct[u.id] += lib.wire_load().wire_cap(direct_count[u.id]);
  });
  return loads;
}

/// Full STA over the raw Network, ignoring any ctx.graph.
inline StaResult run_sta_reference(const TimingContext& ctx,
                                   double tspec) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  const int n = net.size();
  const ReferenceSupplies supplies(ctx);
  const std::vector<double>& vdd = supplies.vdd;
  const Cell* lc_cell =
      lib.level_converter() >= 0 ? &lib.cell(lib.level_converter()) : nullptr;

  StaResult r;
  r.arrival.assign(n, RiseFall{});
  r.lc_arrival.assign(n, RiseFall{});
  r.required.assign(n, RiseFall{kInf, kInf});
  r.slack.assign(n, kInf);

  ReferenceLoads loads = compute_loads_reference(ctx);
  r.load = std::move(loads.direct);
  r.lc_load = std::move(loads.lc);
  const std::vector<int>& lc_count = loads.lc_fanout_pins;

  // ---- forward arrival propagation ---------------------------------------
  const std::vector<NodeId> order = topo_order(net);
  const double vdd_high = lib.vdd_high();
  for (NodeId id : order) {
    const Node& v = net.node(id);
    RiseFall arr{0.0, 0.0};
    if (v.is_gate()) {
      arr = {-kInf, -kInf};
      const double vf = lib.voltage_model().delay_factor(vdd[id]);
      for (std::size_t pin = 0; pin < v.fanins.size(); ++pin) {
        const NodeId uid = v.fanins[pin];
        const TimingArc arc = v.cell >= 0
                                  ? lib.cell(v.cell).arcs[pin]
                                  : default_arc(v.function,
                                                static_cast<int>(pin));
        const RiseFall d = ArcView{arc, vf, r.load[id]}.delay();
        const RiseFall& in = supplies.through_lc(uid, id)
                                 ? r.lc_arrival[uid]
                                 : r.arrival[uid];
        const RiseFall cand = propagate(in, arc, d);
        arr.rise = std::max(arr.rise, cand.rise);
        arr.fall = std::max(arr.fall, cand.fall);
      }
      if (v.fanins.empty()) arr = {0.0, 0.0};
    }
    r.arrival[id] = arr;
    if (supplies.lc[id] != 0 && lc_count[id] > 0) {
      const double vf = lib.voltage_model().delay_factor(vdd_high);
      const RiseFall d =
          ArcView{lc_cell->arcs[0], vf, r.lc_load[id]}.delay();
      r.lc_arrival[id] = propagate(arr, lc_cell->arcs[0], d);
    }
  }

  r.worst_arrival = 0.0;
  for (const OutputPort& port : net.outputs())
    r.worst_arrival = std::max(r.worst_arrival, r.arrival[port.driver].max());
  r.tspec = tspec < 0.0 ? r.worst_arrival : tspec;

  // ---- backward required propagation -------------------------------------
  for (const OutputPort& port : net.outputs()) {
    RiseFall& req = r.required[port.driver];
    req.rise = std::min(req.rise, r.tspec);
    req.fall = std::min(req.fall, r.tspec);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Node& v = net.node(*it);
    if (!v.is_gate()) continue;
    const double vf = lib.voltage_model().delay_factor(vdd[v.id]);
    for (std::size_t pin = 0; pin < v.fanins.size(); ++pin) {
      const NodeId uid = v.fanins[pin];
      const TimingArc arc =
          v.cell >= 0 ? lib.cell(v.cell).arcs[pin]
                      : default_arc(v.function, static_cast<int>(pin));
      const RiseFall d = ArcView{arc, vf, r.load[v.id]}.delay();
      RiseFall pin_req = back_propagate(r.required[v.id], arc, d);
      if (supplies.through_lc(uid, v.id)) {
        const double lcvf = lib.voltage_model().delay_factor(vdd_high);
        const RiseFall lcd =
            ArcView{lc_cell->arcs[0], lcvf, r.lc_load[uid]}.delay();
        pin_req = back_propagate(pin_req, lc_cell->arcs[0], lcd);
      }
      RiseFall& req = r.required[uid];
      req.rise = std::min(req.rise, pin_req.rise);
      req.fall = std::min(req.fall, pin_req.fall);
    }
  }

  // ---- slack ------------------------------------------------------------
  net.for_each_node([&](const Node& v) {
    const RiseFall& a = r.arrival[v.id];
    const RiseFall& q = r.required[v.id];
    r.slack[v.id] = std::min(q.rise - a.rise, q.fall - a.fall);
  });
  return r;
}

/// CVS as an eager loop: a full-start timer, a reverse topological walk
/// over the design's graph, and the event-driven required-time flood
/// after every lowering.  run_cvs must make the same decisions.
inline CvsResult run_cvs_reference(Design& design,
                                   const CvsOptions& options = {}) {
  const Network& net = design.network();
  const Library& lib = design.library();
  CvsResult result;
  IncrementalSta timer(design.timing_context(), design.tspec());
  const std::vector<NodeId>& order = design.timing_graph().topo_order();
  const std::vector<double> factor =
      lib.supplies().delay_factors(lib.voltage_model());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Node& gate = net.node(*it);
    if (!gate.is_gate() || gate.cell < 0) continue;
    const SupplyId current = design.level(gate.id);
    SupplyId limit = design.supplies().deepest();
    for (NodeId fo : gate.fanouts)
      if (net.node(fo).is_gate()) limit = std::min(limit, design.level(fo));
    if (limit <= current) continue;
    for (SupplyId target = limit; target > current; --target) {
      const StaResult& sta = timer.result();
      const double increase = worst_delay_increase(
          factor[current], factor[target], lib.cell(gate.cell),
          sta.load[gate.id]);
      if (increase + options.slack_margin > sta.slack[gate.id]) continue;
      design.set_level(gate.id, target);
      timer.on_node_changed(gate.id);
      ++result.num_lowered;
      break;
    }
  }
  result.tcb = compute_tcb(design.timing_context(), timer.result());
  result.required_evaluations = timer.required_evaluations();
  return result;
}

}  // namespace dvs
