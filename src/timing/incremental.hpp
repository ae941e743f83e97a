// Event-driven incremental timing: keeps a StaResult up to date across
// point changes (a gate's rung or cell size) without re-analyzing the
// whole network.  CVS commits hundreds of
// single-gate changes per run, each followed by a timing query; the
// incremental engine turns that from O(n) per commit into O(affected).
//
// The engine reads the live TimingContext spans on every update, so the
// caller mutates its rung / cell state first and then calls
// `on_node_changed(id)`.
//
// A caller that decides node by node in reverse topological order (CVS)
// runs `sweep` instead of flooding required times after every change:
// the sweep is the backward half of a full walk with the caller's
// decisions interleaved, so each required time is pulled once.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "timing/sta.hpp"

namespace dvs {

namespace timing_detail {
class NodeRules;
}

class IncrementalSta {
 public:
  /// Constructor tag: start with the forward half only (loads, arrivals,
  /// worst arrival).  Required times and slacks stay +inf until a sweep
  /// pulls them.
  struct ForwardOnly {};

  /// Captures the context (the spans must outlive this object) and runs a
  /// full analysis.  When `ctx.graph` carries a current compiled graph the
  /// engine shares it (worklists, ranks and adjacency all come from it);
  /// otherwise it compiles a private one.  Updates apply the same
  /// per-node rules as the full walk (timing/kernel.hpp), driven from a
  /// rank heap instead of a full sweep.
  IncrementalSta(const TimingContext& ctx, double tspec);
  IncrementalSta(const TimingContext& ctx, double tspec, ForwardOnly);
  ~IncrementalSta();

  /// Current timing state; consistent with the last notified change once
  /// required times are settled (a full start, or after a sweep).  During
  /// a sweep only the visited node's required time and slack, and
  /// `worst_arrival`, are defined.
  const StaResult& result() const { return result_; }

  /// The node's rung or cell changed (after the fact).
  /// Recomputes the affected loads, then propagates arrival changes
  /// forward and required-time changes backward along the worklists.
  /// Inside a sweep only the visited node may change: the update re-times
  /// loads and arrivals and re-pulls that node's required time.
  void on_node_changed(NodeId id);

  /// The backward half of a full walk with `visit(id)` interleaved: every
  /// live node in reverse rank order gets its required time and slack
  /// pulled, then is visited.  Each pull reads only the node's fanout
  /// pins (every sink has a higher rank, so it is settled) and its own
  /// converter state; a change at the visited node moves only loads at
  /// it and its fanins and arrivals downstream, so no settled required
  /// time moves.  At the end the whole result is settled again.
  template <class Visit>
  void sweep(Visit&& visit) {
    using V = std::remove_reference_t<Visit>;
    run_sweep([](void* v, NodeId id) { (*static_cast<V*>(v))(id); },
              &visit);
  }

  /// Full re-analysis (also the recovery path after structural edits).
  void full_recompute();

  /// Verification hook: true iff every field of the incremental state
  /// matches a fresh full analysis — infinities exactly, finite values
  /// within `eps`.
  bool matches_full_sta(double eps = 1e-9) const;

  /// Required times evaluated since construction, full starts included
  /// (one per live node each).  A work count for tests and benches.
  std::int64_t required_evaluations() const { return required_evals_; }

 private:
  /// Resolves the graph, builds the rules and sizes the worklists.
  void bind();
  void run_sweep(void (*visit)(void*, NodeId), void* state);
  /// Recomputes arrival (and LC arrival) of one node from its fanins.
  /// Returns true when the stored value moved by more than kEps.  Keeps
  /// `worst_arrival` as a running max over port drivers, marking it
  /// stale when the driver that held it got faster.
  bool recompute_arrival(const timing_detail::NodeRules& rules, NodeId id);
  /// Recomputes required time of one node from its fanouts (pull).
  bool recompute_required(const timing_detail::NodeRules& rules, NodeId id);
  /// Recomputes the direct/LC load of one node.
  void recompute_load(const timing_detail::NodeRules& rules, NodeId id);
  void refresh_worst_arrival();
  /// Fresh full analysis over the engine's graph.
  StaResult analyze_full() const;

  TimingContext ctx_;
  double tspec_;
  StaResult result_;
  const TimingGraph* graph_ = nullptr;  // resolved by bind()
  std::unique_ptr<const TimingGraph> own_graph_;  // ctx_.graph was stale
  /// The per-node rules bound to graph_, built once per resolved graph
  /// (the per-rung delay factors cost two pow calls each); updates copy
  /// them onto the stack.
  std::unique_ptr<timing_detail::NodeRules> rules_;
  /// Set when the port driver holding `worst_arrival` got faster, the
  /// one case a running max cannot absorb.
  bool worst_stale_ = false;
  /// False from a forward-only start until the first sweep ends, and
  /// during a sweep: updates then run the arrival half only.
  bool required_settled_ = true;
  NodeId visiting_ = -1;  // the node a sweep is visiting, else -1
  std::int64_t required_evals_ = 0;
  /// Worklist: a binary heap of topological ranks plus a queued mark per
  /// rank.  The arrival sweep runs it as a min-heap, then the required
  /// sweep as a max-heap (each sweep drains it before the next starts).
  /// Ranks are unique per live node, so pops follow topological order
  /// exactly.  Sized once per compiled graph in bind(), so updates never
  /// allocate.
  std::vector<int> heap_;
  std::vector<char> queued_;
};

}  // namespace dvs
