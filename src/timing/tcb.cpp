#include "timing/tcb.hpp"

#include <vector>

#include "support/contracts.hpp"

namespace dvs {

std::vector<NodeId> compute_tcb(const TimingContext& ctx,
                                const StaResult& sta) {
  const Network& net = *ctx.net;
  const std::span<const SupplyId> rung = ctx.node_level;
  DVS_EXPECTS(static_cast<int>(rung.size()) >= net.size());
  const SupplyLadder& ladder = ctx.lib->supplies();
  const SupplyId deepest = ladder.deepest();
  const std::vector<double> factor =
      ladder.delay_factors(ctx.lib->voltage_model());

  std::vector<char> drives_port(net.size(), 0);
  for (const OutputPort& port : net.outputs()) drives_port[port.driver] = 1;

  // The deepen probes — can this gate drop one rung within its own
  // slack? — run as one batched pass per current-rung group with the
  // factor pair hoisted.  Membership is emitted in gate order.
  std::vector<NodeId> adjacent;  // for_each_gate order
  std::vector<std::vector<NodeId>> by_rung(ladder.depth());
  net.for_each_gate([&](const Node& n) {
    const SupplyId cur = rung[n.id];
    if (cur == deepest) return;  // already on the deepest rung
    bool adjacent_to_low = drives_port[n.id] != 0;
    for (NodeId fo : n.fanouts)
      if (rung[fo] > cur) adjacent_to_low = true;
    if (!adjacent_to_low) return;
    adjacent.push_back(n.id);
    by_rung[cur].push_back(n.id);
  });

  std::vector<char> blocked(net.size(), 0);
  for (SupplyId cur = kTopRung; cur < deepest; ++cur) {
    if (by_rung[cur].empty()) continue;
    const double f_cur = factor[cur];
    const double f_next = factor[cur + 1];
    for (NodeId id : by_rung[cur]) {
      const Node& n = net.node(id);
      if (n.cell < 0) {
        blocked[id] = 1;  // unmapped: cannot deepen, always in the TCB
        continue;
      }
      const double increase = worst_delay_increase(
          f_cur, f_next, ctx.lib->cell(n.cell), sta.load[id]);
      if (increase > sta.slack[id] + 1e-12) blocked[id] = 1;
    }
  }

  std::vector<NodeId> tcb;
  for (NodeId id : adjacent)
    if (blocked[id] != 0) tcb.push_back(id);
  return tcb;
}

}  // namespace dvs
