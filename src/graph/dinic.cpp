// Dinic's algorithm: BFS level graph + DFS blocking flow.  The library's
// default max-flow engine (the paper's complexity discussion assumes
// Goldberg-Tarjan-class performance; Dinic is near-linear on the shallow,
// unit-ish networks our reductions produce).
#include <algorithm>
#include <span>

#include "graph/flow_network.hpp"
#include "support/contracts.hpp"

namespace dvs {

namespace {

class Dinic {
 public:
  Dinic(FlowNetwork& net, int source, int sink)
      : net_(net),
        source_(source),
        sink_(sink),
        level_(net.num_vertices()),
        iter_(net.num_vertices()),
        queue_(net.num_vertices()) {}

  double run() {
    double total = 0.0;
    while (build_levels()) {
      std::fill(iter_.begin(), iter_.end(), 0);
      for (;;) {
        const double pushed = push(source_, kFlowInf);
        if (pushed <= kFlowEps) break;
        total += pushed;
      }
    }
    return total;
  }

 private:
  bool build_levels() {
    std::fill(level_.begin(), level_.end(), -1);
    // Every vertex enters the BFS queue at most once: a flat array with
    // a read cursor is the whole queue.
    int head = 0, tail = 0;
    level_[source_] = 0;
    queue_[tail++] = source_;
    while (head < tail) {
      const int v = queue_[head++];
      for (const FlowNetwork::Arc& arc : net_.arcs_of(v)) {
        if (arc.cap > kFlowEps && level_[arc.to] < 0) {
          level_[arc.to] = level_[v] + 1;
          queue_[tail++] = arc.to;
        }
      }
    }
    return level_[sink_] >= 0;
  }

  double push(int v, double limit) {
    if (v == sink_) return limit;
    const std::span<FlowNetwork::Arc> arcs = net_.arcs_of(v);
    for (int& i = iter_[v]; i < static_cast<int>(arcs.size()); ++i) {
      FlowNetwork::Arc& arc = arcs[i];
      if (arc.cap <= kFlowEps || level_[arc.to] != level_[v] + 1) continue;
      const double pushed = push(arc.to, std::min(limit, arc.cap));
      if (pushed > kFlowEps) {
        arc.cap -= pushed;
        net_.arcs_of(arc.to)[arc.rev].cap += pushed;
        return pushed;
      }
    }
    return 0.0;
  }

  FlowNetwork& net_;
  int source_;
  int sink_;
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<int> queue_;
};

}  // namespace

double dinic_max_flow(FlowNetwork& net, int source, int sink) {
  DVS_EXPECTS(source != sink);
  return Dinic(net, source, sink).run();
}

}  // namespace dvs
