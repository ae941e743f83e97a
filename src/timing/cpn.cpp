#include "timing/cpn.hpp"

#include <algorithm>
#include <memory>

#include "support/contracts.hpp"
#include "timing/kernel.hpp"

namespace dvs {

CriticalPathNetwork extract_cpn(const TimingContext& ctx,
                                const StaResult& sta,
                                const std::vector<NodeId>& tcb,
                                double window) {
  const Network& net = *ctx.net;
  std::unique_ptr<const TimingGraph> own;
  const timing_detail::NodeRules rules(ctx,
                                       timing_detail::current_graph(ctx, own));
  const TimingGraph& g = rules.graph();
  CriticalPathNetwork cpn;
  std::vector<char> member(net.size(), 0);
  std::vector<char> is_sink(net.size(), 0);
  std::vector<NodeId> worklist;

  for (NodeId t : tcb) {
    DVS_EXPECTS(net.is_valid(t));
    if (!member[t]) {
      member[t] = 1;
      is_sink[t] = 1;
      worklist.push_back(t);
    }
  }

  while (!worklist.empty()) {
    const NodeId vid = worklist.back();
    worklist.pop_back();
    const Node& v = net.node(vid);
    if (!v.is_gate() || v.cell < 0) continue;
    const std::span<const NodeId> fi = g.fanins(vid);
    const std::span<const TimingArc> arcs = g.arcs(vid);
    const double vf = rules.factor(vid);
    const double target = sta.arrival[vid].max();
    for (std::size_t pin = 0; pin < fi.size(); ++pin) {
      const NodeId uid = fi[pin];
      const RiseFall& in = rules.through_converter(uid, vid)
                               ? sta.lc_arrival[uid]
                               : sta.arrival[uid];
      // Worst contribution of this pin to the output arrival: the
      // arrival rule's candidate for the pin, worse edge.
      const double contribution =
          timing_detail::propagate(
              in, arcs[pin],
              timing_detail::ArcView{arcs[pin], vf, sta.load[vid]}.delay())
              .max();
      if (contribution + window < target) continue;  // non-critical arc
      const Node& u = net.node(uid);
      if (!u.is_gate()) continue;  // path entry from a PI or constant
      cpn.edges.emplace_back(uid, vid);
      if (!member[uid]) {
        member[uid] = 1;
        worklist.push_back(uid);
      }
    }
  }

  // Collect nodes, classify sources (no critical gate fanin inside CPN).
  std::vector<char> has_inside_fanin(net.size(), 0);
  for (const auto& [u, v] : cpn.edges) has_inside_fanin[v] = 1;
  for (int id = 0; id < net.size(); ++id) {
    if (!member[id]) continue;
    cpn.nodes.push_back(id);
    if (!has_inside_fanin[id]) cpn.sources.push_back(id);
    if (is_sink[id]) cpn.sinks.push_back(id);
  }
  std::sort(cpn.edges.begin(), cpn.edges.end());
  cpn.edges.erase(std::unique(cpn.edges.begin(), cpn.edges.end()),
                  cpn.edges.end());
  return cpn;
}

}  // namespace dvs
