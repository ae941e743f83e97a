// Residual flow network shared by the Dinic and Edmonds-Karp solvers.
// Capacities are doubles (the algorithms' termination bounds are
// structural, not capacity-dependent), compared against kFlowEps.
//
// Two phases: the network is built with add_vertex / add_arc, then laid
// out once — on the first read of its arcs (any solve, arcs_of, flow_on,
// residual_reachable) — into one CSR array.  Each vertex keeps its arcs
// in insertion order: add_arc(from, to) appends the arc to `from`'s list
// and then its residual twin to `to`'s list (for a self-loop the twin
// lands right after the arc), so every arc index and `rev` link is what
// per-vertex append lists would hold, and solvers visit arcs in exactly
// that order.  Adding vertices or arcs after the layout is a contract
// violation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dvs {

inline constexpr double kFlowEps = 1e-9;
inline constexpr double kFlowInf = 1e18;

class FlowNetwork {
 public:
  struct Arc {
    int to = 0;
    int rev = 0;       // index of the reverse arc in arcs_of(to)
    double cap = 0.0;  // remaining residual capacity
  };

  int add_vertex();
  int add_vertices(int count);
  int num_vertices() const { return static_cast<int>(offset_.size()) - 1; }

  /// Capacity hint for the arcs still to be added (the staging list).
  void reserve_arcs(std::size_t count) { staged_.reserve(count); }

  /// Adds a directed arc and its zero-capacity residual twin.
  /// Returns the arc's index within arcs_of(from).
  int add_arc(int from, int to, double cap);

  /// Arcs of `v` in insertion order; the first call lays the network out.
  std::span<const Arc> arcs_of(int v) const {
    lay_out();
    return {arcs_.data() + offset_[v], arcs_.data() + offset_[v + 1]};
  }
  std::span<Arc> arcs_of(int v) {
    lay_out();
    return {arcs_.data() + offset_[v], arcs_.data() + offset_[v + 1]};
  }

  /// Flow currently pushed through the arc `index` of vertex `from`
  /// (reverse twin's accumulated capacity).
  double flow_on(int from, int index) const;

  /// Vertices reachable from `source` through arcs with residual capacity;
  /// after a max-flow run this is the source side of a minimum cut.
  std::vector<char> residual_reachable(int source) const;

 private:
  struct StagedArc {
    int from = 0;
    int to = 0;
    double cap = 0.0;
  };

  /// Builds the CSR array from the staging list (once) and frees it.
  void lay_out() const {
    if (!laid_out_) build_csr();
  }
  void build_csr() const;

  // While building, offset_[v + 1] counts v's arc slots (arcs plus
  // twins); the layout turns the counts into CSR offsets in place.  The
  // layout is logically const: it changes the representation, never the
  // arcs a reader sees.
  mutable std::vector<int> offset_{0};
  mutable std::vector<StagedArc> staged_;
  mutable std::vector<Arc> arcs_;
  mutable bool laid_out_ = false;
};

/// Interface both solvers implement; returns the max-flow value and leaves
/// the network holding the residual state.
double dinic_max_flow(FlowNetwork& net, int source, int sink);
double edmonds_karp_max_flow(FlowNetwork& net, int source, int sink);

enum class FlowAlgo { kDinic, kEdmondsKarp };

inline double max_flow(FlowNetwork& net, int source, int sink,
                       FlowAlgo algo) {
  return algo == FlowAlgo::kDinic ? dinic_max_flow(net, source, sink)
                                  : edmonds_karp_max_flow(net, source, sink);
}

}  // namespace dvs
