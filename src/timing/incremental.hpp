// Event-driven incremental timing: keeps a StaResult up to date across
// point changes (a gate's supply, cell size, or level-converter flag)
// without re-analyzing the whole network.  CVS commits hundreds of
// single-gate changes per run, each followed by a timing query; the
// incremental engine turns that from O(n) per commit into O(affected).
//
// The engine reads the live TimingContext spans on every update, so the
// caller mutates its vdd / cell / lc state first and then calls
// `on_node_changed(id)`.
#pragma once

#include <memory>
#include <vector>

#include "timing/sta.hpp"

namespace dvs {

namespace timing_detail {
class NodeRules;
}

class IncrementalSta {
 public:
  /// Captures the context (the spans must outlive this object) and runs a
  /// full analysis.  When `ctx.graph` carries a current compiled graph the
  /// engine shares it (worklists, ranks and adjacency all come from it);
  /// otherwise it compiles a private one.  Updates apply the same
  /// per-node rules as the full walk (timing/kernel.hpp), driven from a
  /// rank heap instead of a full sweep.
  IncrementalSta(const TimingContext& ctx, double tspec);
  ~IncrementalSta();

  /// Current timing state; always consistent with the last notified
  /// change.
  const StaResult& result() const { return result_; }

  /// The node's supply, cell, or LC flag changed (after the fact).
  /// Recomputes the affected loads, then propagates arrival changes
  /// forward and required-time changes backward along the worklists.
  void on_node_changed(NodeId id);

  /// Full re-analysis (also the recovery path after structural edits).
  void full_recompute();

  /// Verification hook: true iff the incremental state matches a fresh
  /// full analysis within `eps`.
  bool matches_full_sta(double eps = 1e-9) const;

 private:
  /// Recomputes arrival (and LC arrival) of one node from its fanins.
  /// Returns true when the stored value moved by more than kEps.  Sets
  /// `port_arrival_moved_` when a port driver's arrival changed at all
  /// (bitwise), which is the exact condition under which the cached
  /// worst_arrival could be stale.
  bool recompute_arrival(timing_detail::NodeRules& rules, NodeId id);
  /// Recomputes required time of one node from its fanouts (pull).
  bool recompute_required(timing_detail::NodeRules& rules, NodeId id);
  /// Recomputes the direct/LC load of one node.
  void recompute_load(const timing_detail::NodeRules& rules, NodeId id);
  void refresh_worst_arrival();
  /// Fresh full analysis over the engine's graph.
  StaResult analyze_full() const;

  TimingContext ctx_;
  double tspec_;
  StaResult result_;
  const TimingGraph* graph_ = nullptr;  // resolved by full_recompute()
  std::unique_ptr<const TimingGraph> own_graph_;  // ctx_.graph was stale
  /// Set by recompute_arrival when any output-port driver's arrival
  /// changed bitwise since the last refresh_worst_arrival.
  bool port_arrival_moved_ = false;
  /// Worklist: a binary heap of topological ranks plus a queued mark per
  /// rank.  The arrival sweep runs it as a min-heap, then the required
  /// sweep as a max-heap (each sweep drains it before the next starts).
  /// Ranks are unique per live node, so pops follow topological order
  /// exactly.  Sized once per compiled graph in full_recompute(), so
  /// updates never allocate.
  std::vector<int> heap_;
  std::vector<char> queued_;
};

}  // namespace dvs
