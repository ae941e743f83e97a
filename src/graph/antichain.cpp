#include "graph/antichain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/contracts.hpp"

namespace dvs {

AntichainResult max_weight_antichain(const AntichainProblem& problem,
                                     FlowAlgo algo) {
  const int n = problem.num_nodes;
  DVS_EXPECTS(static_cast<int>(problem.weight.size()) == n);
  for (double w : problem.weight) DVS_EXPECTS(w >= 0.0);

  // The feasible min-flow starting point routes w(v) units along the
  // dedicated chain s -> v_in -> v_out -> t for every weighted node.  The
  // network below *is* that flow's residual, phrased as a fresh max-flow
  // problem from t to s; every unit pushed merges two chains into one and
  // thus cancels one unit of total flow.
  //
  // Vertex layout: 0 = s, 1 = t, then (v_in, v_out) pairs.
  FlowNetwork net;
  const int s = net.add_vertex();
  const int t = net.add_vertex();
  const int base = net.add_vertices(2 * n);
  auto v_in = [&](int v) { return base + 2 * v; };
  auto v_out = [&](int v) { return base + 2 * v + 1; };
  const auto weighted = std::count_if(problem.weight.begin(),
                                      problem.weight.end(),
                                      [](double w) { return w > 0.0; });
  net.reserve_arcs(static_cast<std::size_t>(n + 2 * weighted) +
                   problem.edges.size());

  double total_weight = 0.0;
  for (int v = 0; v < n; ++v) {
    net.add_arc(v_in(v), v_out(v), kFlowInf);  // raise coverage freely
    if (problem.weight[v] > 0.0) {
      net.add_arc(t, v_out(v), problem.weight[v]);  // un-route ... -> t
      net.add_arc(v_in(v), s, problem.weight[v]);   // un-route s -> ...
      total_weight += problem.weight[v];
    }
  }
  for (const auto& [u, v] : problem.edges) {
    DVS_EXPECTS(u >= 0 && u < n && v >= 0 && v < n && u != v);
    net.add_arc(v_out(u), v_in(v), kFlowInf);  // extend a chain along a DAG edge
  }

  const double cancelled = max_flow(net, t, s, algo);

  // Min-cut side containing t; the antichain is the set of weighted nodes
  // whose out-half is on the t side while the in-half is not.
  const std::vector<char> t_side = net.residual_reachable(t);
  AntichainResult result;
  for (int v = 0; v < n; ++v) {
    if (problem.weight[v] <= 0.0) continue;
    if (t_side[v_out(v)] && !t_side[v_in(v)]) {
      result.selected.push_back(v);
      result.total_weight += problem.weight[v];
    }
  }
  // Weighted Dilworth: max antichain = min flow = initial flow - cancelled.
  DVS_ENSURES(std::abs(result.total_weight - (total_weight - cancelled)) <=
              1e-6 * (1.0 + total_weight));
  return result;
}

namespace {

/// Reachability closure as adjacency-of-bools, for the brute-force oracle.
std::vector<std::vector<char>> closure(const AntichainProblem& p) {
  std::vector<std::vector<char>> reach(
      p.num_nodes, std::vector<char>(p.num_nodes, 0));
  std::vector<std::vector<int>> adj(p.num_nodes);
  for (const auto& [u, v] : p.edges) adj[u].push_back(v);
  for (int start = 0; start < p.num_nodes; ++start) {
    std::vector<int> stack{start};
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (int w : adj[v]) {
        if (!reach[start][w]) {
          reach[start][w] = 1;
          stack.push_back(w);
        }
      }
    }
  }
  return reach;
}

}  // namespace

AntichainResult max_weight_antichain_bruteforce(
    const AntichainProblem& problem) {
  const int n = problem.num_nodes;
  DVS_EXPECTS(n <= 20);
  const auto reach = closure(problem);
  AntichainResult best;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    double weight = 0.0;
    bool ok = true;
    for (int v = 0; v < n && ok; ++v) {
      if (!(mask & (1u << v))) continue;
      if (problem.weight[v] <= 0.0) {
        ok = false;
        break;
      }
      weight += problem.weight[v];
      for (int u = 0; u < v && ok; ++u) {
        if (!(mask & (1u << u))) continue;
        if (reach[u][v] || reach[v][u]) ok = false;
      }
    }
    if (ok && weight > best.total_weight) {
      best.total_weight = weight;
      best.selected.clear();
      for (int v = 0; v < n; ++v)
        if (mask & (1u << v)) best.selected.push_back(v);
    }
  }
  return best;
}

}  // namespace dvs
