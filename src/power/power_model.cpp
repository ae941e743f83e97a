#include "power/power_model.hpp"

#include "support/contracts.hpp"
#include "support/units.hpp"
#include "timing/loads.hpp"

namespace dvs {

PowerBreakdown compute_power(const PowerContext& ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  const int n = net.size();
  DVS_EXPECTS(static_cast<int>(ctx.node_vdd.size()) >= n);
  DVS_EXPECTS(static_cast<int>(ctx.alpha01.size()) >= n);

  TimingContext tctx;
  tctx.net = ctx.net;
  tctx.lib = ctx.lib;
  tctx.node_vdd = ctx.node_vdd;
  tctx.lc_on_output = ctx.lc_on_output;
  tctx.graph = ctx.graph;
  const NodeLoads loads = compute_loads(tctx);

  PowerBreakdown p;
  p.node_power.assign(n, 0.0);
  const double vdd_high = lib.vdd_high();
  const Cell* lc_cell =
      lib.level_converter() >= 0 ? &lib.cell(lib.level_converter()) : nullptr;

  net.for_each_node([&](const Node& node) {
    if (node.is_constant()) return;  // never switches
    // Primary-input nets are charged to the upstream block that drives
    // them: no Vdd choice inside this design can change their energy, so
    // counting them would only dilute the improvement percentages.
    if (node.is_input()) return;
    const double a = ctx.alpha01[node.id];
    const double vdd = ctx.node_vdd[node.id];
    const double v2 = vdd * vdd;
    double mine = 0.0;

    const double sw = a * ctx.freq_mhz * loads.direct[node.id] * v2 *
                      kSwitchPowerToMicrowatt;
    p.switching += sw;
    mine += sw;

    if (node.is_gate() && node.cell >= 0) {
      const Cell& cell = lib.cell(node.cell);
      const double internal = a * ctx.freq_mhz * cell.internal_cap * v2 *
                              kSwitchPowerToMicrowatt;
      const double leak =
          cell.leakage * lib.voltage_model().leakage_factor(vdd);
      p.internal += internal;
      p.leakage += leak;
      mine += internal + leak;
    }

    if (loads.lc_fanout_pins[node.id] > 0) {
      DVS_ASSERT(lc_cell != nullptr);
      // The converter's output stage and internal node run at Vdd_high;
      // it switches as often as its driver does.
      const double vh2 = vdd_high * vdd_high;
      const double conv =
          a * ctx.freq_mhz *
              (loads.lc[node.id] + lc_cell->internal_cap) * vh2 *
              kSwitchPowerToMicrowatt +
          lc_cell->leakage;
      p.converter += conv;
      mine += conv;
    }
    p.node_power[node.id] = mine;
  });
  return p;
}

PowerBreakdown compute_power(const Network& net, const Library& lib,
                             const Activity& activity, double freq_mhz) {
  std::vector<double> vdd(net.size(), lib.vdd_high());
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib;
  ctx.node_vdd = vdd;
  ctx.alpha01 = activity.alpha01;
  ctx.freq_mhz = freq_mhz;
  return compute_power(ctx);
}

}  // namespace dvs
