#include "timing/loads.hpp"

#include <memory>

#include "support/contracts.hpp"
#include "timing/kernel.hpp"

namespace dvs {

bool arc_through_lc(const TimingContext& ctx, NodeId driver, NodeId sink) {
  const bool has_lc =
      !ctx.lc_on_output.empty() && ctx.lc_on_output[driver] != 0;
  return timing_detail::through_converter(has_lc, ctx.node_vdd[driver],
                                          ctx.node_vdd[sink]);
}

NodeLoads compute_loads(const TimingContext& ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  std::unique_ptr<const TimingGraph> own;
  const timing_detail::NodeRules rules(
      ctx, timing_detail::current_graph(ctx, own));
  const int n = ctx.net->size();
  NodeLoads loads;
  loads.direct.assign(n, 0.0);
  loads.lc.assign(n, 0.0);
  loads.lc_fanout_pins.assign(n, 0);
  for (NodeId u : rules.graph().topo_order()) {
    const timing_detail::LoadSplit split = rules.load(u);
    loads.direct[u] = split.direct;
    loads.lc[u] = split.lc;
    loads.lc_fanout_pins[u] = split.lc_pins;
  }
  return loads;
}

}  // namespace dvs
