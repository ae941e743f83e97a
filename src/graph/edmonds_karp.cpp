// Edmonds-Karp: shortest augmenting paths by BFS.  This is the algorithm
// the paper cites ([2], CLR chapter 27) for min_weight_separator; we keep
// it as an alternative backend and cross-check it against Dinic in the
// tests and benchmarks.
#include <algorithm>
#include <span>

#include "graph/flow_network.hpp"
#include "support/contracts.hpp"

namespace dvs {

double edmonds_karp_max_flow(FlowNetwork& net, int source, int sink) {
  DVS_EXPECTS(source != sink);
  const int n = net.num_vertices();
  double total = 0.0;
  // prev_arc[v] = (vertex, arc index) used to reach v in the BFS tree.
  std::vector<std::pair<int, int>> prev(n);
  std::vector<char> seen(n);
  // BFS queue: each vertex is queued at most once per search.
  std::vector<int> queue(n);

  for (;;) {
    std::fill(seen.begin(), seen.end(), 0);
    int head = 0, tail = 0;
    queue[tail++] = source;
    seen[source] = 1;
    bool found = false;
    while (head < tail && !found) {
      const int v = queue[head++];
      const std::span<const FlowNetwork::Arc> arcs = net.arcs_of(v);
      for (int i = 0; i < static_cast<int>(arcs.size()); ++i) {
        const FlowNetwork::Arc& arc = arcs[i];
        if (arc.cap <= kFlowEps || seen[arc.to]) continue;
        seen[arc.to] = 1;
        prev[arc.to] = {v, i};
        if (arc.to == sink) {
          found = true;
          break;
        }
        queue[tail++] = arc.to;
      }
    }
    if (!found) break;

    double bottleneck = kFlowInf;
    for (int v = sink; v != source;) {
      const auto [u, i] = prev[v];
      bottleneck = std::min(bottleneck, net.arcs_of(u)[i].cap);
      v = u;
    }
    for (int v = sink; v != source;) {
      const auto [u, i] = prev[v];
      FlowNetwork::Arc& arc = net.arcs_of(u)[i];
      arc.cap -= bottleneck;
      net.arcs_of(arc.to)[arc.rev].cap += bottleneck;
      v = u;
    }
    total += bottleneck;
  }
  return total;
}

}  // namespace dvs
