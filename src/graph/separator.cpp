#include "graph/separator.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace dvs {

SeparatorResult min_weight_separator(const SeparatorProblem& problem,
                                     FlowAlgo algo) {
  const int n = problem.num_nodes;
  DVS_EXPECTS(static_cast<int>(problem.weight.size()) == n);
  DVS_EXPECTS(!problem.sources.empty() && !problem.sinks.empty());
  for (double w : problem.weight) DVS_EXPECTS(w > 0.0);

  FlowNetwork net;
  const int s = net.add_vertex();
  const int t = net.add_vertex();
  const int base = net.add_vertices(2 * n);
  auto v_in = [&](int v) { return base + 2 * v; };
  auto v_out = [&](int v) { return base + 2 * v + 1; };
  net.reserve_arcs(static_cast<std::size_t>(n) + problem.edges.size() +
                   problem.sources.size() + problem.sinks.size());

  for (int v = 0; v < n; ++v)
    net.add_arc(v_in(v), v_out(v), problem.weight[v]);
  for (const auto& [u, v] : problem.edges) {
    DVS_EXPECTS(u >= 0 && u < n && v >= 0 && v < n && u != v);
    net.add_arc(v_out(u), v_in(v), kFlowInf);
  }
  for (int src : problem.sources) net.add_arc(s, v_in(src), kFlowInf);
  for (int snk : problem.sinks) net.add_arc(v_out(snk), t, kFlowInf);

  const double cut_value = max_flow(net, s, t, algo);

  const std::vector<char> s_side = net.residual_reachable(s);
  SeparatorResult result;
  for (int v = 0; v < n; ++v) {
    if (s_side[v_in(v)] && !s_side[v_out(v)]) {
      result.selected.push_back(v);
      result.total_weight += problem.weight[v];
    }
  }
  DVS_ENSURES(std::abs(result.total_weight - cut_value) <=
              1e-6 * (1.0 + cut_value));
  DVS_ENSURES(is_separator(problem, result.selected));
  return result;
}

bool is_separator(const SeparatorProblem& problem,
                  const std::vector<int>& cut) {
  const int n = problem.num_nodes;
  std::vector<char> removed(n, 0);
  for (int v : cut) removed[v] = 1;
  // Successor lists as one CSR array (counting sort on the tail node).
  std::vector<int> offset(n + 1, 0);
  for (const auto& [u, v] : problem.edges) ++offset[u + 1];
  for (int v = 0; v < n; ++v) offset[v + 1] += offset[v];
  std::vector<int> succ(problem.edges.size());
  std::vector<int> next(offset.begin(), offset.end() - 1);
  for (const auto& [u, v] : problem.edges) succ[next[u]++] = v;

  std::vector<char> seen(n, 0);
  std::vector<int> stack;
  stack.reserve(n);
  for (int src : problem.sources) {
    if (!removed[src] && !seen[src]) {
      seen[src] = 1;
      stack.push_back(src);
    }
  }
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int k = offset[v]; k < offset[v + 1]; ++k) {
      const int w = succ[k];
      if (!removed[w] && !seen[w]) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  for (int snk : problem.sinks)
    if (!removed[snk] && seen[snk]) return false;
  return true;
}

}  // namespace dvs
