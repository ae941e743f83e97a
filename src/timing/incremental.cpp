#include "timing/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"
#include "timing/graph.hpp"

namespace dvs {

namespace {

constexpr double kEps = 1e-12;

using timing_detail::ArcView;
using timing_detail::back_propagate;
using timing_detail::DelayFactorCache;
using timing_detail::kVoltEps;
using timing_detail::propagate;

bool differs(const RiseFall& a, const RiseFall& b) {
  return std::abs(a.rise - b.rise) > kEps ||
         std::abs(a.fall - b.fall) > kEps;
}

}  // namespace

IncrementalSta::IncrementalSta(const TimingContext& ctx, double tspec)
    : ctx_(ctx), tspec_(tspec) {
  full_recompute();
}

IncrementalSta::~IncrementalSta() = default;

StaResult IncrementalSta::analyze_full() const {
  TimingContext ctx = ctx_;
  ctx.graph = graph_;
  return run_sta(ctx, tspec_);
}

void IncrementalSta::full_recompute() {
  // Prefer the caller's compiled graph; compile (or recompile, after a
  // structural edit) a private one otherwise.
  if (ctx_.graph && ctx_.graph->describes(*ctx_.net, *ctx_.lib)) {
    graph_ = ctx_.graph;
    owned_graph_.reset();
  } else if (owned_graph_ &&
             owned_graph_->describes(*ctx_.net, *ctx_.lib)) {
    graph_ = owned_graph_.get();
  } else {
    owned_graph_ =
        std::make_unique<TimingGraph>(*ctx_.net, *ctx_.lib);
    graph_ = owned_graph_.get();
  }
  result_ = analyze_full();
  port_arrival_moved_ = false;
  // A node sits on the worklist at most once, so the live count bounds
  // the heap.
  const std::size_t live = graph_->topo_order().size();
  queued_.assign(live, 0);
  heap_.clear();
  heap_.reserve(live);
}

bool IncrementalSta::recompute_load(NodeId id) {
  const Library& lib = *ctx_.lib;
  const TimingGraph& g = *graph_;
  const bool id_has_lc =
      !ctx_.lc_on_output.empty() && ctx_.lc_on_output[id] != 0;

  double direct = 0.0, lc = 0.0;
  int direct_count = 0, lc_count = 0;
  const auto pins = g.fanout_pins(id);
  const auto caps = g.fanout_pin_caps(id);
  const double id_vdd = ctx_.node_vdd[id];
  for (std::size_t e = 0; e < pins.size(); ++e) {
    const bool through_lc =
        id_has_lc && ctx_.node_vdd[pins[e].sink] > id_vdd + kVoltEps;
    if (through_lc) {
      lc += caps[e];
      ++lc_count;
    } else {
      direct += caps[e];
      ++direct_count;
    }
  }
  for (int k = 0; k < g.port_fanout_count(id); ++k) {
    direct += ctx_.output_port_load;
    ++direct_count;
  }
  if (lc_count > 0) {
    const Cell& lc_cell = lib.cell(lib.level_converter());
    direct += lc_cell.input_cap[0];
    ++direct_count;
    lc += lib.wire_load().wire_cap(lc_count);
  }
  direct += lib.wire_load().wire_cap(direct_count);

  const bool changed = std::abs(direct - result_.load[id]) > kEps ||
                       std::abs(lc - result_.lc_load[id]) > kEps;
  result_.load[id] = direct;
  result_.lc_load[id] = lc;
  return changed;
}

bool IncrementalSta::recompute_arrival(NodeId id, DelayFactorCache& df) {
  const Library& lib = *ctx_.lib;
  const TimingGraph& g = *graph_;
  auto has_lc = [&](NodeId n) {
    return !ctx_.lc_on_output.empty() && ctx_.lc_on_output[n] != 0;
  };

  const std::span<const NodeId> fi = g.fanins(id);
  RiseFall arr{0.0, 0.0};
  if (g.is_gate(id) && !fi.empty()) {
    arr = {-1e30, -1e30};
    const double vf = df(ctx_.node_vdd[id]);
    const std::span<const TimingArc> arcs = g.arcs(id);
    const double load = result_.load[id];
    for (std::size_t pin = 0; pin < fi.size(); ++pin) {
      const NodeId uid = fi[pin];
      const TimingArc& arc = arcs[pin];
      const RiseFall d = ArcView{arc, vf, load}.delay();
      const bool through_lc =
          has_lc(uid) && ctx_.node_vdd[id] > ctx_.node_vdd[uid] + kVoltEps;
      const RiseFall& in =
          through_lc ? result_.lc_arrival[uid] : result_.arrival[uid];
      const RiseFall cand = propagate(in, arc, d);
      arr.rise = std::max(arr.rise, cand.rise);
      arr.fall = std::max(arr.fall, cand.fall);
    }
  }

  RiseFall lc_arr{};
  if (has_lc(id) && result_.lc_load[id] > 0.0) {
    const Cell& lc_cell = lib.cell(lib.level_converter());
    const double vf = df(lib.vdd_high());
    const RiseFall d =
        ArcView{lc_cell.arcs[0], vf, result_.lc_load[id]}.delay();
    lc_arr = propagate(arr, lc_cell.arcs[0], d);
  }

  const bool changed = differs(arr, result_.arrival[id]) ||
                       differs(lc_arr, result_.lc_arrival[id]);
  // Even a sub-kEps wiggle on a port driver shifts the worst-arrival
  // fold, so the staleness test is bitwise, not tolerance-based.
  if (g.port_fanout_count(id) > 0 &&
      (arr.rise != result_.arrival[id].rise ||
       arr.fall != result_.arrival[id].fall))
    port_arrival_moved_ = true;
  result_.arrival[id] = arr;
  result_.lc_arrival[id] = lc_arr;
  result_.slack[id] = std::min(result_.required[id].rise - arr.rise,
                               result_.required[id].fall - arr.fall);
  return changed;
}

bool IncrementalSta::recompute_required(NodeId id, DelayFactorCache& df) {
  const Library& lib = *ctx_.lib;
  const TimingGraph& g = *graph_;
  const bool id_has_lc =
      !ctx_.lc_on_output.empty() && ctx_.lc_on_output[id] != 0;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  RiseFall req{kInf, kInf};
  for (int k = 0; k < g.port_fanout_count(id); ++k) {
    req.rise = std::min(req.rise, result_.tspec);
    req.fall = std::min(req.fall, result_.tspec);
  }
  for (const TimingGraph::FanoutPin& fo : g.fanout_pins(id)) {
    const NodeId vid = fo.sink;
    const double vf = df(ctx_.node_vdd[vid]);
    const TimingArc& arc = g.arcs(vid)[fo.pin];
    const RiseFall d = ArcView{arc, vf, result_.load[vid]}.delay();
    RiseFall pin_req = back_propagate(result_.required[vid], arc, d);
    const bool through_lc =
        id_has_lc && ctx_.node_vdd[vid] > ctx_.node_vdd[id] + kVoltEps;
    if (through_lc) {
      const Cell& lc_cell = lib.cell(lib.level_converter());
      const double lcvf = df(lib.vdd_high());
      const RiseFall lcd =
          ArcView{lc_cell.arcs[0], lcvf, result_.lc_load[id]}.delay();
      pin_req = back_propagate(pin_req, lc_cell.arcs[0], lcd);
    }
    req.rise = std::min(req.rise, pin_req.rise);
    req.fall = std::min(req.fall, pin_req.fall);
  }

  const bool changed = differs(req, result_.required[id]);
  result_.required[id] = req;
  result_.slack[id] =
      std::min(req.rise - result_.arrival[id].rise,
               req.fall - result_.arrival[id].fall);
  return changed;
}

void IncrementalSta::refresh_worst_arrival() {
  // The fold reads only port-driver arrivals; when none of them moved
  // bitwise since the last refresh the cached value is exact already.
  if (!port_arrival_moved_) return;
  port_arrival_moved_ = false;
  result_.worst_arrival = 0.0;
  for (const OutputPort& port : ctx_.net->outputs())
    result_.worst_arrival =
        std::max(result_.worst_arrival,
                 result_.arrival[port.driver].max());
}

void IncrementalSta::on_node_changed(NodeId id) {
  const TimingGraph& g = *graph_;
  DVS_EXPECTS(ctx_.net->is_valid(id));
  // Absorb a possible cell change before touching arcs or caps.
  g.sync_node(id);
  const std::vector<int>& ranks = g.topo_ranks();
  const std::vector<NodeId>& order = g.topo_order();
  DelayFactorCache df(ctx_.lib->voltage_model(), ctx_.lib->supplies());

  // The worklist pops the extreme rank first: lowest for the arrival
  // sweep (std::greater makes a min-heap), highest for the required one.
  auto push = [&](auto before, NodeId v) {
    const int rank = ranks[v];
    if (queued_[rank]) return;
    queued_[rank] = 1;
    heap_.push_back(rank);
    std::push_heap(heap_.begin(), heap_.end(), before);
  };
  auto pop = [&](auto before) {
    std::pop_heap(heap_.begin(), heap_.end(), before);
    const int rank = heap_.back();
    heap_.pop_back();
    queued_[rank] = 0;
    return order[rank];
  };
  auto seed_forward = [&](NodeId v) { push(std::greater<int>(), v); };
  auto seed_required = [&](NodeId v) { push(std::less<int>(), v); };

  // Loads that can move: the node's own (LC split, port/pin mix) and its
  // fanins' (the node's pin caps change with its cell; its supply decides
  // which fanin arcs run through a converter).
  recompute_load(id);
  seed_forward(id);
  for (NodeId fi : g.fanins(id)) {
    recompute_load(fi);
    seed_forward(fi);
  }

  // Arrival sweep in topological order; a change fans out.
  while (!heap_.empty()) {
    const NodeId v = pop(std::greater<int>());
    if (recompute_arrival(v, df))
      for (NodeId fo : g.unique_fanouts(v)) seed_forward(fo);
  }

  // Required sweep in reverse topological order.  Arc delays into the
  // changed nodes moved with their loads/supplies, so their fanins (and
  // transitively, everything upstream that notices) re-pull.
  seed_required(id);
  for (NodeId fi : g.fanins(id)) {
    seed_required(fi);
    for (NodeId gfi : g.fanins(fi)) seed_required(gfi);
  }
  while (!heap_.empty()) {
    const NodeId v = pop(std::less<int>());
    if (recompute_required(v, df))
      for (NodeId fi : g.fanins(v)) seed_required(fi);
  }
  refresh_worst_arrival();
}

bool IncrementalSta::matches_full_sta(double eps) const {
  const StaResult fresh = analyze_full();
  const Network& net = *ctx_.net;
  bool ok = true;
  net.for_each_node([&](const Node& n) {
    const NodeId i = n.id;
    if (std::abs(fresh.arrival[i].rise - result_.arrival[i].rise) > eps ||
        std::abs(fresh.arrival[i].fall - result_.arrival[i].fall) > eps ||
        std::abs(fresh.load[i] - result_.load[i]) > eps ||
        std::abs(fresh.lc_load[i] - result_.lc_load[i]) > eps)
      ok = false;
    const bool both_inf = std::isinf(fresh.required[i].rise) &&
                          std::isinf(result_.required[i].rise);
    if (!both_inf &&
        std::abs(fresh.required[i].rise - result_.required[i].rise) > eps)
      ok = false;
  });
  if (std::abs(fresh.worst_arrival - result_.worst_arrival) > eps)
    ok = false;
  return ok;
}

}  // namespace dvs
