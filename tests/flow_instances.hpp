// Seeded random max-flow reduction instances shared by the kernel tests:
// netlist-shaped DAGs with separator and antichain weights on top.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/antichain.hpp"
#include "graph/separator.hpp"
#include "support/rng.hpp"

namespace dvs {

/// Random DAG over `n` nodes: each node draws up to three fanins from a
/// window of earlier nodes, so depth grows with n the way netlists do.
inline std::vector<std::pair<int, int>> random_dag(int n, Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    const int fanins = rng.next_int(0, 3);
    for (int k = 0; k < fanins; ++k) {
      const int lo = std::max(0, v - 40);
      edges.emplace_back(rng.next_int(lo, v - 1), v);
    }
  }
  return edges;
}

/// Positive weights on every node; the DAG's own sources and sinks.
inline SeparatorProblem separator_instance(int n, Rng& rng) {
  SeparatorProblem p;
  p.num_nodes = n;
  p.edges = random_dag(n, rng);
  for (int v = 0; v < n; ++v) p.weight.push_back(0.1 + rng.next_double());
  std::vector<char> has_in(n, 0), has_out(n, 0);
  for (const auto& [u, v] : p.edges) {
    has_out[u] = 1;
    has_in[v] = 1;
  }
  for (int v = 0; v < n; ++v) {
    if (!has_in[v]) p.sources.push_back(v);
    if (!has_out[v]) p.sinks.push_back(v);
  }
  return p;
}

/// A third of the nodes weightless (pass-through), the rest positive.
inline AntichainProblem antichain_instance(int n, Rng& rng) {
  AntichainProblem p;
  p.num_nodes = n;
  p.edges = random_dag(n, rng);
  for (int v = 0; v < n; ++v)
    p.weight.push_back(rng.next_bool(0.33) ? 0.0 : 0.1 + rng.next_double());
  return p;
}

}  // namespace dvs
