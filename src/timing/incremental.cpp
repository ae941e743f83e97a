#include "timing/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "support/contracts.hpp"
#include "timing/graph.hpp"
#include "timing/kernel.hpp"

namespace dvs {

namespace {

constexpr double kEps = 1e-12;

bool differs(const RiseFall& a, const RiseFall& b) {
  return std::abs(a.rise - b.rise) > kEps ||
         std::abs(a.fall - b.fall) > kEps;
}

/// Infinities must be equal; finite values agree within `eps`.
bool agree(double a, double b, double eps) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(a - b) <= eps;
}

bool agree(const RiseFall& a, const RiseFall& b, double eps) {
  return agree(a.rise, b.rise, eps) && agree(a.fall, b.fall, eps);
}

}  // namespace

IncrementalSta::IncrementalSta(const TimingContext& ctx, double tspec)
    : ctx_(ctx), tspec_(tspec) {
  full_recompute();
}

IncrementalSta::IncrementalSta(const TimingContext& ctx, double tspec,
                               ForwardOnly)
    : ctx_(ctx), tspec_(tspec) {
  bind();
  timing_detail::walk_forward(*rules_, result_);
  timing_detail::start_backward(result_, tspec_);
  required_settled_ = false;
}

IncrementalSta::~IncrementalSta() = default;

StaResult IncrementalSta::analyze_full() const {
  TimingContext ctx = ctx_;
  ctx.graph = graph_;
  return run_sta(ctx, tspec_);
}

void IncrementalSta::bind() {
  graph_ = &timing_detail::current_graph(ctx_, own_graph_);
  rules_ = std::make_unique<timing_detail::NodeRules>(ctx_, *graph_);
  worst_stale_ = false;
  required_settled_ = true;
  // A node sits on the worklist at most once, so the live count bounds
  // the heap.
  const std::size_t live = graph_->topo_order().size();
  queued_.assign(live, 0);
  heap_.clear();
  heap_.reserve(live);
}

void IncrementalSta::full_recompute() {
  DVS_EXPECTS(visiting_ < 0);  // not from inside a sweep
  bind();
  result_ = analyze_full();
  required_evals_ += static_cast<std::int64_t>(graph_->topo_order().size());
}

void IncrementalSta::recompute_load(const timing_detail::NodeRules& rules,
                                    NodeId id) {
  const timing_detail::LoadSplit split = rules.load(id);
  result_.load[id] = split.direct;
  result_.lc_load[id] = split.lc;
}

bool IncrementalSta::recompute_arrival(
    const timing_detail::NodeRules& rules, NodeId id) {
  const RiseFall arr = rules.arrival(id, result_);
  const RiseFall lc_arr = rules.lc_arrival(arr, result_.lc_load[id]);

  const bool changed = differs(arr, result_.arrival[id]) ||
                       differs(lc_arr, result_.lc_arrival[id]);
  if (graph_->port_fanout_count(id) > 0) {
    // A max is exact in any order, so a later port arrival raises the
    // running max to the bit; only the holder getting faster needs the
    // fold over every port.
    const double before = result_.arrival[id].max();
    const double after = arr.max();
    if (after > result_.worst_arrival)
      result_.worst_arrival = after;
    else if (after < before && before == result_.worst_arrival)
      worst_stale_ = true;
  }
  result_.arrival[id] = arr;
  result_.lc_arrival[id] = lc_arr;
  result_.slack[id] = timing_detail::slack(arr, result_.required[id]);
  return changed;
}

bool IncrementalSta::recompute_required(
    const timing_detail::NodeRules& rules, NodeId id) {
  ++required_evals_;
  const RiseFall req = rules.required(id, result_);
  const bool changed = differs(req, result_.required[id]);
  result_.required[id] = req;
  result_.slack[id] = timing_detail::slack(result_.arrival[id], req);
  return changed;
}

void IncrementalSta::refresh_worst_arrival() {
  if (!worst_stale_) return;
  worst_stale_ = false;
  result_.worst_arrival = 0.0;
  for (const OutputPort& port : ctx_.net->outputs())
    result_.worst_arrival =
        std::max(result_.worst_arrival,
                 result_.arrival[port.driver].max());
}

void IncrementalSta::on_node_changed(NodeId id) {
  const TimingGraph& g = *graph_;
  DVS_EXPECTS(ctx_.net->is_valid(id));
  DVS_EXPECTS(visiting_ < 0 || id == visiting_);
  // Absorb a possible cell change before touching arcs or caps.
  g.sync_node(id);
  timing_detail::NodeRules rules = *rules_;
  const std::vector<int>& ranks = g.topo_ranks();
  const std::vector<NodeId>& order = g.topo_order();

  // The worklist pops the extreme rank first: lowest for the arrival
  // sweep (std::greater makes a min-heap), highest for the required one.
  auto push = [&](auto before, NodeId v) {
    const int rank = ranks[v];
    if (queued_[rank]) return;
    queued_[rank] = 1;
    heap_.push_back(rank);
    std::push_heap(heap_.begin(), heap_.end(), before);
  };
  auto pop = [&](auto before) {
    std::pop_heap(heap_.begin(), heap_.end(), before);
    const int rank = heap_.back();
    heap_.pop_back();
    queued_[rank] = 0;
    return order[rank];
  };
  auto seed_forward = [&](NodeId v) { push(std::greater<int>(), v); };
  auto seed_required = [&](NodeId v) { push(std::less<int>(), v); };

  // Loads that can move: the node's own (LC split, port/pin mix) and its
  // fanins' (the node's pin caps change with its cell; its rung decides
  // which fanin arcs run through a converter).
  recompute_load(rules, id);
  seed_forward(id);
  for (NodeId fi : g.fanins(id)) {
    recompute_load(rules, fi);
    seed_forward(fi);
  }

  // Arrival sweep in topological order; a change fans out.
  while (!heap_.empty()) {
    const NodeId v = pop(std::greater<int>());
    if (recompute_arrival(rules, v))
      for (NodeId fo : g.unique_fanouts(v)) seed_forward(fo);
  }

  if (!required_settled_) {
    // The arrival half only: the sweep pulls every other required time
    // when it reaches it.  The visited node re-pulls, since a change can
    // give it a converter.
    if (id == visiting_) recompute_required(rules, id);
    refresh_worst_arrival();
    return;
  }

  // Required sweep in reverse topological order.  Arc delays into the
  // changed nodes moved with their loads/supplies, so their fanins (and
  // transitively, everything upstream that notices) re-pull.
  seed_required(id);
  for (NodeId fi : g.fanins(id)) {
    seed_required(fi);
    for (NodeId gfi : g.fanins(fi)) seed_required(gfi);
  }
  while (!heap_.empty()) {
    const NodeId v = pop(std::less<int>());
    if (recompute_required(rules, v))
      for (NodeId fi : g.fanins(v)) seed_required(fi);
  }
  refresh_worst_arrival();
}

void IncrementalSta::run_sweep(void (*visit)(void*, NodeId), void* state) {
  DVS_EXPECTS(visiting_ < 0);  // sweeps do not nest
  required_settled_ = false;
  timing_detail::NodeRules rules = *rules_;
  const std::vector<NodeId>& order = graph_->topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    visiting_ = *it;
    recompute_required(rules, *it);
    visit(state, *it);
  }
  visiting_ = -1;
  required_settled_ = true;
}

bool IncrementalSta::matches_full_sta(double eps) const {
  const StaResult fresh = analyze_full();
  bool ok = agree(fresh.tspec, result_.tspec, eps) &&
            agree(fresh.worst_arrival, result_.worst_arrival, eps);
  ctx_.net->for_each_node([&](const Node& n) {
    const NodeId i = n.id;
    ok = ok && agree(fresh.arrival[i], result_.arrival[i], eps) &&
         agree(fresh.lc_arrival[i], result_.lc_arrival[i], eps) &&
         agree(fresh.required[i], result_.required[i], eps) &&
         agree(fresh.slack[i], result_.slack[i], eps) &&
         agree(fresh.load[i], result_.load[i], eps) &&
         agree(fresh.lc_load[i], result_.lc_load[i], eps);
  });
  return ok;
}

}  // namespace dvs
