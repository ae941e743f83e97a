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
        const double pushed = augment();
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

  /// Pushes the bottleneck of one source-to-sink path of the level graph
  /// along it and returns the amount, or 0 when no path is left.  The path
  /// is an explicit stack of (vertex, bottleneck so far); each vertex's
  /// arc cursor `iter_` persists across paths, and a vertex whose arcs run
  /// out is a dead end that moves its parent's cursor past the arc to it.
  double augment() {
    path_.assign(1, {source_, kFlowInf});
    while (!path_.empty()) {
      const auto [v, limit] = path_.back();
      if (v == sink_) {
        for (std::size_t k = path_.size() - 1; k-- > 0;) {
          FlowNetwork::Arc& arc =
              net_.arcs_of(path_[k].vertex)[iter_[path_[k].vertex]];
          arc.cap -= limit;
          net_.arcs_of(arc.to)[arc.rev].cap += limit;
        }
        return limit;
      }
      const std::span<FlowNetwork::Arc> arcs = net_.arcs_of(v);
      int& i = iter_[v];
      while (i < static_cast<int>(arcs.size()) &&
             (arcs[i].cap <= kFlowEps || level_[arcs[i].to] != level_[v] + 1))
        ++i;
      if (i < static_cast<int>(arcs.size())) {
        path_.push_back({arcs[i].to, std::min(limit, arcs[i].cap)});
      } else {
        path_.pop_back();
        if (!path_.empty()) ++iter_[path_.back().vertex];
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
  struct Step {
    int vertex;
    double limit;
  };
  std::vector<Step> path_;
};

}  // namespace

double dinic_max_flow(FlowNetwork& net, int source, int sink) {
  DVS_EXPECTS(source != sink);
  return Dinic(net, source, sink).run();
}

}  // namespace dvs
