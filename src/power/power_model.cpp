#include "power/power_model.hpp"

#include <memory>

#include "support/contracts.hpp"
#include "support/units.hpp"
#include "timing/kernel.hpp"

namespace dvs {

NodePower node_power(const PowerContext& ctx, const Node& node,
                     double direct_load, double lc_load, int lc_pins) {
  NodePower t;
  if (node.is_constant()) return t;  // never switches
  // Primary-input nets are charged to the upstream block that drives
  // them: no Vdd choice inside this design can change their energy, so
  // counting them would only dilute the improvement percentages.
  if (node.is_input()) return t;
  const Library& lib = *ctx.lib;
  const double a = ctx.alpha01[node.id];
  const double vdd = lib.supplies().voltages()[ctx.node_level[node.id]];
  const double v2 = vdd * vdd;
  t.switching =
      a * ctx.freq_mhz * direct_load * v2 * kSwitchPowerToMicrowatt;
  if (node.is_gate() && node.cell >= 0) {
    const Cell& cell = lib.cell(node.cell);
    t.internal = a * ctx.freq_mhz * cell.internal_cap * v2 *
                 kSwitchPowerToMicrowatt;
    t.leakage = cell.leakage * lib.voltage_model().leakage_factor(vdd);
  }
  if (lc_pins > 0)
    t.converter = converter_power(lib, a, ctx.freq_mhz, lc_load);
  return t;
}

double converter_power(const Library& lib, double a, double freq_mhz,
                       double lc_load) {
  DVS_ASSERT(lib.level_converter() >= 0);
  const Cell& lc_cell = lib.cell(lib.level_converter());
  // The converter's output stage and internal node run at Vdd_high; it
  // switches as often as its driver does.
  const double vdd_high = lib.vdd_high();
  const double vh2 = vdd_high * vdd_high;
  return a * freq_mhz * (lc_load + lc_cell.internal_cap) * vh2 *
             kSwitchPowerToMicrowatt +
         lc_cell.leakage;
}

PowerBreakdown compute_power(const PowerContext& ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const int n = net.size();
  DVS_EXPECTS(static_cast<int>(ctx.alpha01.size()) >= n);
  const TimingContext tctx = ctx.timing();
  std::unique_ptr<const TimingGraph> own;
  const timing_detail::NodeRules rules(
      tctx, timing_detail::current_graph(tctx, own));

  // Absent terms are +0.0, and adding +0.0 leaves a non-negative sum's
  // bits alone, so charging every node matches skipping the uncharged.
  PowerBreakdown p;
  p.node_power.assign(n, 0.0);
  net.for_each_node([&](const Node& node) {
    const NodeId id = node.id;
    const timing_detail::LoadSplit load = rules.load(id);
    const NodePower t =
        node_power(ctx, node, load.direct, load.lc, load.lc_pins);
    p.switching += t.switching;
    p.internal += t.internal;
    p.converter += t.converter;
    p.leakage += t.leakage;
    p.node_power[id] = t.switching + (t.internal + t.leakage) + t.converter;
  });
  return p;
}

PowerBreakdown compute_power(const Network& net, const Library& lib,
                             const Activity& activity, double freq_mhz) {
  const std::vector<SupplyId> level(net.size(), kTopRung);
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib;
  ctx.node_level = level;
  ctx.alpha01 = activity.alpha01;
  ctx.freq_mhz = freq_mhz;
  return compute_power(ctx);
}

}  // namespace dvs
