#include "timing/sta.hpp"

#include <algorithm>
#include <memory>

#include "support/contracts.hpp"
#include "timing/graph.hpp"
#include "timing/kernel.hpp"

namespace dvs {

namespace timing_detail {

NodeRules::NodeRules(const TimingContext& ctx, const TimingGraph& g)
    : g_(&g), lib_(ctx.lib), level_(ctx.node_level) {
  DVS_EXPECTS(static_cast<int>(level_.size()) >= g.network().size());
  const Library& lib = *ctx.lib;
  const std::vector<double> factors =
      lib.supplies().delay_factors(lib.voltage_model());
  std::copy(factors.begin(), factors.end(), factor_.begin());
  if (lib.level_converter() >= 0) {
    const Cell& lc = lib.cell(lib.level_converter());
    lc_arc_ = &lc.arcs[0];
    lc_cap_ = lc.input_cap[0];
  }
}

void walk_forward(const NodeRules& rules, StaResult& r) {
  const TimingGraph& g = rules.graph();
  const Network& net = g.network();
  const int n = net.size();
  r.load.assign(n, 0.0);
  r.lc_load.assign(n, 0.0);
  r.arrival.assign(n, RiseFall{});
  r.lc_arrival.assign(n, RiseFall{});
  // A node's arrival reads only its own load, so one rank-ordered pass
  // settles both.
  for (NodeId id : g.topo_order()) {
    const LoadSplit split = rules.load(id);
    r.load[id] = split.direct;
    r.lc_load[id] = split.lc;
    r.arrival[id] = rules.arrival(id, r);
    r.lc_arrival[id] = rules.lc_arrival(r.arrival[id], split.lc);
  }
  r.worst_arrival = 0.0;
  for (const OutputPort& port : net.outputs())
    r.worst_arrival = std::max(r.worst_arrival, r.arrival[port.driver].max());
}

void start_backward(StaResult& r, double tspec) {
  r.tspec = tspec < 0.0 ? r.worst_arrival : tspec;
  const std::size_t n = r.arrival.size();
  r.required.assign(n, RiseFall{kInf, kInf});
  r.slack.assign(n, kInf);
}

}  // namespace timing_detail

RiseFall arc_delay(const Library& lib, const Cell& cell, int pin, double vdd,
                   double load_ff) {
  DVS_EXPECTS(pin >= 0 && pin < cell.num_inputs());
  const double vf = lib.voltage_model().delay_factor(vdd);
  return timing_detail::ArcView{cell.arcs[pin], vf, load_ff}.delay();
}

double worst_delay_increase(const Library& lib, const Cell& cell,
                            double vdd_from, double vdd_to, double load_ff) {
  return worst_delay_increase(lib.voltage_model().delay_factor(vdd_from),
                              lib.voltage_model().delay_factor(vdd_to),
                              cell, load_ff);
}

double worst_delay_increase(double factor_from, double factor_to,
                            const Cell& cell, double load_ff) {
  const double df = factor_to - factor_from;
  double worst = 0.0;
  for (const TimingArc& arc : cell.arcs) {
    worst = std::max(
        worst, df * (arc.intrinsic_rise + arc.resistance_rise * load_ff));
    worst = std::max(
        worst, df * (arc.intrinsic_fall + arc.resistance_fall * load_ff));
  }
  return worst;
}

StaResult run_sta(const TimingContext& ctx, double tspec) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  std::unique_ptr<const TimingGraph> own;
  const timing_detail::NodeRules rules(ctx,
                                       timing_detail::current_graph(ctx, own));
  StaResult r;
  timing_detail::walk_forward(rules, r);
  timing_detail::start_backward(r, tspec);

  // Backward in rank order: every fanout of a node is settled before the
  // node pulls from it.
  const std::vector<NodeId>& order = rules.graph().topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    r.required[*it] = rules.required(*it, r);
    r.slack[*it] = timing_detail::slack(r.arrival[*it], r.required[*it]);
  }
  return r;
}

StaResult run_sta(const Network& net, const Library& lib, double tspec) {
  const std::vector<SupplyId> level(net.size(), kTopRung);
  TimingContext ctx;
  ctx.net = &net;
  ctx.lib = &lib;
  ctx.node_level = level;
  return run_sta(ctx, tspec);
}

}  // namespace dvs
