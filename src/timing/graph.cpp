#include "timing/graph.hpp"

#include <algorithm>
#include <memory>

#include "netlist/topo.hpp"
#include "support/contracts.hpp"
#include "timing/kernel.hpp"

namespace dvs {

namespace {

double pin_cap_of(const Library& lib, const Node& sink, int pin) {
  if (sink.cell >= 0) return lib.cell(sink.cell).input_cap[pin];
  return timing_detail::kDefaultPinCap;
}

TimingArc arc_of(const Library& lib, const Node& gate, int pin) {
  if (gate.cell >= 0) return lib.cell(gate.cell).arcs[pin];
  return timing_detail::default_arc(gate.function, pin);
}

}  // namespace

TimingGraph::TimingGraph(const Network& net, const Library& lib)
    : net_(&net), lib_(&lib) {
  compile();
}

void TimingGraph::compile() {
  const Network& net = *net_;
  const Library& lib = *lib_;
  const int n = net.size();
  structural_version_ = net.structural_version();

  topo_order_ = dvs::topo_order(net);
  topo_rank_.assign(n, 0);
  for (std::size_t i = 0; i < topo_order_.size(); ++i)
    topo_rank_[topo_order_[i]] = static_cast<int>(i);

  gate_flag_.assign(n, 0);
  port_count_.assign(n, 0);
  cell_.assign(n, -1);
  net.for_each_node([&](const Node& node) {
    gate_flag_[node.id] = node.is_gate() ? 1 : 0;
    cell_[node.id] = node.cell;
  });
  for (const OutputPort& port : net.outputs()) ++port_count_[port.driver];

  // ---- fanin CSR + pre-resolved arcs -----------------------------------
  fanin_offset_.assign(n + 1, 0);
  net.for_each_node([&](const Node& node) {
    fanin_offset_[node.id + 1] = static_cast<std::int32_t>(node.fanins.size());
  });
  for (int i = 0; i < n; ++i) fanin_offset_[i + 1] += fanin_offset_[i];
  fanin_.assign(fanin_offset_[n], kNoNode);
  arc_.assign(fanin_offset_[n], TimingArc{});
  net.for_each_node([&](const Node& node) {
    const std::int32_t base = fanin_offset_[node.id];
    for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
      fanin_[base + pin] = node.fanins[pin];
      arc_[base + pin] = arc_of(lib, node, static_cast<int>(pin));
    }
  });

  // ---- unique-fanout pin entries ---------------------------------------
  // Built with for_each_unique_fanout itself so the entry order (and with
  // it every float accumulation downstream) matches the seed walks.
  entry_offset_.assign(n + 1, 0);
  uniq_offset_.assign(n + 1, 0);
  entry_.clear();
  entry_cap_.clear();
  uniq_.clear();
  for (int u = 0; u < n; ++u) {
    if (net.is_valid(u)) {
      const Node& driver = net.node(u);
      for_each_unique_fanout(driver, [&](NodeId vid) {
        const Node& sink = net.node(vid);
        uniq_.push_back(vid);
        for (std::size_t pin = 0; pin < sink.fanins.size(); ++pin) {
          if (sink.fanins[pin] != u) continue;
          entry_.push_back({vid, static_cast<std::int32_t>(pin)});
          entry_cap_.push_back(pin_cap_of(lib, sink, static_cast<int>(pin)));
        }
      });
    }
    entry_offset_[u + 1] = static_cast<std::int32_t>(entry_.size());
    uniq_offset_[u + 1] = static_cast<std::int32_t>(uniq_.size());
  }

  // Cross-link: pin k of sink v is exactly one entry on its driver's list.
  fanin_entry_.assign(fanin_.size(), -1);
  for (std::size_t e = 0; e < entry_.size(); ++e)
    fanin_entry_[fanin_offset_[entry_[e].sink] + entry_[e].pin] =
        static_cast<std::int32_t>(e);
}

void TimingGraph::patch_cell(NodeId id) const {
  const Node& node = net_->node(id);
  cell_[id] = node.cell;
  if (!node.is_gate()) return;
  const std::int32_t base = fanin_offset_[id];
  for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
    arc_[base + pin] = arc_of(*lib_, node, static_cast<int>(pin));
    entry_cap_[fanin_entry_[base + pin]] =
        pin_cap_of(*lib_, node, static_cast<int>(pin));
  }
}

void TimingGraph::sync_node(NodeId id) const {
  DVS_EXPECTS(net_->is_valid(id));
  if (cell_[id] != net_->node(id).cell) patch_cell(id);
}

void TimingGraph::sync_cells() const {
  for (NodeId id : topo_order_)
    if (cell_[id] != net_->node(id).cell) patch_cell(id);
}

namespace timing_detail {

const TimingGraph& current_graph(const TimingContext& ctx,
                                 std::unique_ptr<const TimingGraph>& own,
                                 bool* compiled) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  bool fresh = false;
  const TimingGraph* g = ctx.graph;
  if (g == nullptr || !g->describes(net, lib)) {
    if (!own || !own->describes(net, lib)) {
      own = std::make_unique<const TimingGraph>(net, lib);
      fresh = true;
    }
    g = own.get();
  }
  if (compiled != nullptr) *compiled = fresh;
  if (!fresh) g->sync_cells();
  return *g;
}

}  // namespace timing_detail

// ===========================================================================
// MultiLaneSta
// ===========================================================================

namespace {

using timing_detail::ArcView;
using timing_detail::kInf;
using timing_detail::LoadSplit;
using timing_detail::NodeRules;
using timing_detail::propagate;
using timing_detail::through_converter;

}  // namespace

MultiLaneSta::MultiLaneSta(const TimingContext& ctx, double tspec)
    : ctx_(ctx), tspec_(tspec) {
  DVS_EXPECTS(ctx_.net != nullptr && ctx_.lib != nullptr);
  DVS_EXPECTS(static_cast<int>(ctx_.node_vdd.size()) >= ctx_.net->size());
}

MultiLaneSta::~MultiLaneSta() = default;

int MultiLaneSta::add_lane() {
  lanes_.emplace_back();
  lane_has_level_.push_back(0);
  return static_cast<int>(lanes_.size()) - 1;
}

void MultiLaneSta::reset_lanes() {
  lanes_.clear();
  lane_has_level_.clear();
}

void MultiLaneSta::set_level(int lane, NodeId id, SupplyId rung) {
  DVS_EXPECTS(lane >= 0 && lane < num_lanes());
  DVS_EXPECTS(ctx_.net->is_valid(id) && ctx_.net->node(id).is_gate());
  DVS_EXPECTS(rung < ctx_.lib->supplies().depth());
  // Rung overrides shift LC boundaries, so the committed flags/levels must
  // be available to re-derive from.
  DVS_EXPECTS(static_cast<int>(ctx_.node_level.size()) >= ctx_.net->size());
  DVS_EXPECTS(static_cast<int>(ctx_.lc_on_output.size()) >=
              ctx_.net->size());
  for (Override& o : lanes_[lane])
    if (o.node == id) {
      o.level = rung;
      o.has_level = 1;
      lane_has_level_[lane] = 1;
      return;
    }
  lanes_[lane].push_back({id, rung, -1, 1, 0});
  lane_has_level_[lane] = 1;
}

void MultiLaneSta::set_cell(int lane, NodeId id, int cell) {
  DVS_EXPECTS(lane >= 0 && lane < num_lanes());
  DVS_EXPECTS(ctx_.net->is_valid(id) && ctx_.net->node(id).is_gate());
  for (Override& o : lanes_[lane])
    if (o.node == id) {
      o.cell = cell;
      o.has_cell = 1;
      return;
    }
  lanes_[lane].push_back({id, 0, cell, 0, 1});
}

/// Marks every node any lane's overrides can influence directly: the
/// overridden node itself (arcs / supply / LC flag / load split) plus its
/// gate fanins (their pin caps toward it, their LC flags, their LC load
/// splits).  Everything else either sits below the dirty rank or is
/// recomputed with operand-identical arithmetic.
void MultiLaneSta::build_closure(const TimingGraph& g) {
  const int n = ctx_.net->size();
  touched_.assign(n, 0);
  touch_row_.assign(n, -1);
  touch_list_.clear();
  auto touch = [&](NodeId id) {
    if (touched_[id]) return;
    touched_[id] = 1;
    touch_row_[id] = static_cast<int>(touch_list_.size());
    touch_list_.push_back(id);
  };
  for (const std::vector<Override>& lane : lanes_)
    for (const Override& o : lane) {
      touch(o.node);
      for (NodeId fi : g.fanins(o.node))
        if (g.is_gate(fi)) touch(fi);
    }
}

/// Per-(touched node, lane) effective state: rung/supply/cell from the
/// lane's explicit overrides, LC flags re-derived with the lc_needed rule,
/// and loads from the kernel's load rule with the lane's pin caps and
/// converter routing.
void MultiLaneSta::fill_effective(const NodeRules& rules) {
  const TimingGraph& g = rules.graph();
  const Library& lib = *ctx_.lib;
  const int nl = num_lanes();
  const int rows = static_cast<int>(touch_list_.size());
  const std::size_t slots = static_cast<std::size_t>(rows) * nl;
  eff_vdd_.resize(slots);
  eff_level_.resize(slots);
  eff_cell_.resize(slots);
  eff_load_.resize(slots);
  eff_lc_load_.resize(slots);
  eff_lc_on_.resize(slots);

  const bool any_lc = !ctx_.lc_on_output.empty();
  const bool have_levels = !ctx_.node_level.empty();
  for (int r = 0; r < rows; ++r) {
    const NodeId id = touch_list_[r];
    for (int l = 0; l < nl; ++l) {
      const std::size_t s = static_cast<std::size_t>(r) * nl + l;
      eff_vdd_[s] = ctx_.node_vdd[id];
      eff_level_[s] = have_levels ? ctx_.node_level[id] : kTopRung;
      eff_cell_[s] = kBaseCell;
      eff_lc_on_[s] = any_lc ? ctx_.lc_on_output[id] : 0;
    }
  }
  for (int l = 0; l < nl; ++l)
    for (const Override& o : lanes_[l]) {
      const std::size_t s =
          static_cast<std::size_t>(touch_row_[o.node]) * nl + l;
      if (o.has_level) {
        eff_level_[s] = o.level;
        // Same assignment Design::set_level performs, so the double is
        // identical to the committed vector's.
        eff_vdd_[s] = lib.supplies().voltage(o.level);
      }
      if (o.has_cell) eff_cell_[s] = o.cell;
    }

  auto eff_level_of = [&](NodeId id, int l) -> SupplyId {
    const int r = touch_row_[id];
    if (r >= 0) return eff_level_[static_cast<std::size_t>(r) * nl + l];
    return ctx_.node_level[id];
  };
  auto eff_vdd_of = [&](NodeId id, int l) -> double {
    const int r = touch_row_[id];
    if (r >= 0) return eff_vdd_[static_cast<std::size_t>(r) * nl + l];
    return ctx_.node_vdd[id];
  };

  // LC flags: only lanes that move rungs can change them, and only on
  // touched nodes (a flag depends on the node's and its fanouts' rungs;
  // nodes with an overridden fanout are exactly the touched fanins).
  for (int l = 0; l < nl; ++l) {
    if (!lane_has_level_[l]) continue;
    for (int r = 0; r < rows; ++r) {
      const NodeId id = touch_list_[r];
      const std::size_t s = static_cast<std::size_t>(r) * nl + l;
      const SupplyId driver = eff_level_[s];
      char flag = 0;
      if (driver != kTopRung)
        for (NodeId fo : g.unique_fanouts(id))
          if (g.is_gate(fo) &&
              SupplyLadder::converter_needed(driver, eff_level_of(fo, l))) {
            flag = 1;
            break;
          }
      eff_lc_on_[s] = flag;
    }
  }

  for (int r = 0; r < rows; ++r) {
    const NodeId u = touch_list_[r];
    const std::span<const TimingGraph::FanoutPin> pins = g.fanout_pins(u);
    const std::span<const double> caps = g.fanout_pin_caps(u);
    for (int l = 0; l < nl; ++l) {
      const std::size_t s = static_cast<std::size_t>(r) * nl + l;
      const bool u_lc = eff_lc_on_[s] != 0;
      const double u_vdd = eff_vdd_[s];
      const LoadSplit split = rules.load(
          u,
          [&](std::size_t e) {
            const int sr = touch_row_[pins[e].sink];
            const int c =
                sr < 0 ? kBaseCell
                       : eff_cell_[static_cast<std::size_t>(sr) * nl + l];
            if (c == kBaseCell) return caps[e];
            return c >= 0 ? lib.cell(c).input_cap[pins[e].pin]
                          : timing_detail::kDefaultPinCap;
          },
          [&](const TimingGraph::FanoutPin& p) {
            return through_converter(u_lc, u_vdd, eff_vdd_of(p.sink, l));
          });
      eff_load_[s] = split.direct;
      eff_lc_load_[s] = split.lc;
    }
  }
}

void MultiLaneSta::sweep_lanes(NodeRules& rules) {
  const TimingGraph& g = rules.graph();
  const Network& net = *ctx_.net;
  const Library& lib = *ctx_.lib;
  const int nl = num_lanes();
  const std::vector<NodeId>& order = g.topo_order();
  const std::vector<int>& rank = g.topo_ranks();

  start_rank_ = static_cast<int>(order.size());
  for (NodeId id : touch_list_)
    start_rank_ = std::min(start_rank_, rank[id]);
  const int span = static_cast<int>(order.size()) - start_rank_;
  lane_ar_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_af_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_lr_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_lf_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_worst_.assign(nl, 0.0);
  if (nl == 0) return;

  auto lane_row = [&](std::vector<double>& v, NodeId id) -> double* {
    return v.data() + static_cast<std::size_t>(rank[id] - start_rank_) * nl;
  };

  for (int oi = start_rank_; oi < static_cast<int>(order.size()); ++oi) {
    const NodeId id = order[oi];
    double* ar = lane_ar_.data() + static_cast<std::size_t>(oi - start_rank_) * nl;
    double* af = lane_af_.data() + static_cast<std::size_t>(oi - start_rank_) * nl;
    double* lr = lane_lr_.data() + static_cast<std::size_t>(oi - start_rank_) * nl;
    double* lf = lane_lf_.data() + static_cast<std::size_t>(oi - start_rank_) * nl;
    const std::span<const NodeId> fi = g.fanins(id);
    const int row = touch_row_[id];

    if (!g.is_gate(id) || fi.empty()) {
      // Inputs / constant gates arrive at t=0 in every lane.
      for (int l = 0; l < nl; ++l) ar[l] = 0.0;
      for (int l = 0; l < nl; ++l) af[l] = 0.0;
    } else if (row < 0) {
      // Fast path: the node itself is identical in all lanes, so the
      // arrival rule runs lane-wide — one scalar supply factor, load and
      // delay per pin, max-folded over the lanes' inputs.
      const double vf = rules.factor(ctx_.node_vdd[id]);
      const std::span<const TimingArc> arcs = g.arcs(id);
      const double ld = base_.load[id];
      for (int l = 0; l < nl; ++l) ar[l] = -kInf;
      for (int l = 0; l < nl; ++l) af[l] = -kInf;
      for (std::size_t pin = 0; pin < fi.size(); ++pin) {
        const NodeId uid = fi[pin];
        const TimingArc& arc = arcs[pin];
        const RiseFall d = ArcView{arc, vf, ld}.delay();
        const int urow = touch_row_[uid];
        if (urow < 0) {
          const bool through_lc = rules.through_converter(uid, id);
          if (rank[uid] < start_rank_) {
            // Below the dirty rank every lane reads the base arrival.
            const RiseFall& in =
                through_lc ? base_.lc_arrival[uid] : base_.arrival[uid];
            const RiseFall cand = propagate(in, arc, d);
            for (int l = 0; l < nl; ++l)
              ar[l] = std::max(ar[l], cand.rise);
            for (int l = 0; l < nl; ++l)
              af[l] = std::max(af[l], cand.fall);
          } else {
            const double* inr =
                through_lc ? lane_row(lane_lr_, uid) : lane_row(lane_ar_, uid);
            const double* inf =
                through_lc ? lane_row(lane_lf_, uid) : lane_row(lane_af_, uid);
            // Contiguous per-lane runs with no lane-dependent branches:
            // the auto-vectorizable core of the engine.
            switch (arc.sense) {
              case ArcSense::kPositiveUnate:
                for (int l = 0; l < nl; ++l)
                  ar[l] = std::max(ar[l], inr[l] + d.rise);
                for (int l = 0; l < nl; ++l)
                  af[l] = std::max(af[l], inf[l] + d.fall);
                break;
              case ArcSense::kNegativeUnate:
                for (int l = 0; l < nl; ++l)
                  ar[l] = std::max(ar[l], inf[l] + d.rise);
                for (int l = 0; l < nl; ++l)
                  af[l] = std::max(af[l], inr[l] + d.fall);
                break;
              case ArcSense::kNonUnate:
              default:
                for (int l = 0; l < nl; ++l) {
                  const double worst = std::max(inr[l], inf[l]);
                  ar[l] = std::max(ar[l], worst + d.rise);
                  af[l] = std::max(af[l], worst + d.fall);
                }
                break;
            }
          }
        } else {
          // Overridden fanin: its LC flag / supply differ per lane, so
          // the through-LC routing is resolved lane by lane.
          for (int l = 0; l < nl; ++l) {
            const std::size_t us = static_cast<std::size_t>(urow) * nl + l;
            const bool through_lc = through_converter(
                eff_lc_on_[us] != 0, eff_vdd_[us], ctx_.node_vdd[id]);
            const RiseFall in =
                through_lc
                    ? RiseFall{lane_row(lane_lr_, uid)[l],
                               lane_row(lane_lf_, uid)[l]}
                    : RiseFall{lane_row(lane_ar_, uid)[l],
                               lane_row(lane_af_, uid)[l]};
            const RiseFall cand = propagate(in, arc, d);
            ar[l] = std::max(ar[l], cand.rise);
            af[l] = std::max(af[l], cand.fall);
          }
        }
      }
    } else {
      // Slow path: the node carries overrides in some lane — the arrival
      // rule per lane, with that lane's supply, cell, load and inputs.
      const std::span<const TimingArc> base_arcs = g.arcs(id);
      for (int l = 0; l < nl; ++l) {
        const std::size_t s = static_cast<std::size_t>(row) * nl + l;
        const double vdd = eff_vdd_[s];
        const int c = eff_cell_[s];
        const TimingArc* arcs = base_arcs.data();
        if (c != kBaseCell) {
          if (c >= 0) {
            arcs = lib.cell(c).arcs.data();
          } else {
            scratch_arcs_.clear();
            const Node& node = net.node(id);
            for (std::size_t pin = 0; pin < fi.size(); ++pin)
              scratch_arcs_.push_back(timing_detail::default_arc(
                  node.function, static_cast<int>(pin)));
            arcs = scratch_arcs_.data();
          }
        }
        const RiseFall arr = NodeRules::arrival(
            arcs, fi.size(), rules.factor(vdd), eff_load_[s],
            [&](std::size_t pin) -> RiseFall {
              const NodeId uid = fi[pin];
              const int urow = touch_row_[uid];
              bool through_lc;
              if (urow < 0) {
                through_lc = through_converter(rules.has_lc(uid),
                                               ctx_.node_vdd[uid], vdd);
              } else {
                const std::size_t us =
                    static_cast<std::size_t>(urow) * nl + l;
                through_lc = through_converter(eff_lc_on_[us] != 0,
                                               eff_vdd_[us], vdd);
              }
              if (rank[uid] < start_rank_)
                return through_lc ? base_.lc_arrival[uid] : base_.arrival[uid];
              if (through_lc)
                return {lane_row(lane_lr_, uid)[l], lane_row(lane_lf_, uid)[l]};
              return {lane_row(lane_ar_, uid)[l], lane_row(lane_af_, uid)[l]};
            });
        ar[l] = arr.rise;
        af[l] = arr.fall;
      }
    }

    // Level-converter output arrivals.  The lane block starts at zero,
    // the rule's value for a node without a converter, so untouched
    // nodes without one skip the lane loop.
    if (row < 0) {
      const bool lc = rules.has_lc(id);
      for (int l = 0; lc && l < nl; ++l) {
        const RiseFall out =
            rules.lc_arrival(lc, {ar[l], af[l]}, base_.lc_load[id]);
        lr[l] = out.rise;
        lf[l] = out.fall;
      }
    } else {
      for (int l = 0; l < nl; ++l) {
        const std::size_t s = static_cast<std::size_t>(row) * nl + l;
        const RiseFall out = rules.lc_arrival(
            eff_lc_on_[s] != 0, {ar[l], af[l]}, eff_lc_load_[s]);
        lr[l] = out.rise;
        lf[l] = out.fall;
      }
    }
  }

  for (const OutputPort& port : net.outputs()) {
    const NodeId d = port.driver;
    if (rank[d] < start_rank_) {
      const double w = base_.arrival[d].max();
      for (int l = 0; l < nl; ++l)
        lane_worst_[l] = std::max(lane_worst_[l], w);
    } else {
      const double* ar = lane_row(lane_ar_, d);
      const double* af = lane_row(lane_af_, d);
      for (int l = 0; l < nl; ++l)
        lane_worst_[l] = std::max(lane_worst_[l], std::max(ar[l], af[l]));
    }
  }
}

void MultiLaneSta::run() {
  graph_ = &timing_detail::current_graph(ctx_, fallback_, &recompiled_);
  NodeRules rules(ctx_, *graph_);
  timing_detail::walk_forward(rules, base_);
  build_closure(*graph_);
  fill_effective(rules);
  sweep_lanes(rules);
  ran_lanes_ = num_lanes();
}

double MultiLaneSta::worst_arrival(int lane) const {
  DVS_EXPECTS(lane >= 0 && lane < static_cast<int>(lane_worst_.size()));
  return lane_worst_[lane];
}

RiseFall MultiLaneSta::arrival(int lane, NodeId id) const {
  DVS_EXPECTS(lane >= 0 && lane < ran_lanes_);
  const int rank = graph_->topo_ranks()[id];
  if (rank < start_rank_) return base_.arrival[id];
  const std::size_t s =
      static_cast<std::size_t>(rank - start_rank_) * ran_lanes_ + lane;
  return {lane_ar_[s], lane_af_[s]};
}

}  // namespace dvs
