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

}  // namespace

IncrementalSta::IncrementalSta(const TimingContext& ctx, double tspec)
    : ctx_(ctx), tspec_(tspec) {
  full_recompute();
}

IncrementalSta::~IncrementalSta() = default;

StaResult IncrementalSta::analyze_full() const {
  TimingContext ctx = ctx_;
  ctx.graph = graph_;
  return run_sta(ctx, tspec_);
}

void IncrementalSta::full_recompute() {
  graph_ = &timing_detail::current_graph(ctx_, own_graph_);
  result_ = analyze_full();
  port_arrival_moved_ = false;
  // A node sits on the worklist at most once, so the live count bounds
  // the heap.
  const std::size_t live = graph_->topo_order().size();
  queued_.assign(live, 0);
  heap_.clear();
  heap_.reserve(live);
}

void IncrementalSta::recompute_load(const timing_detail::NodeRules& rules,
                                    NodeId id) {
  const timing_detail::LoadSplit split = rules.load(id);
  result_.load[id] = split.direct;
  result_.lc_load[id] = split.lc;
}

bool IncrementalSta::recompute_arrival(timing_detail::NodeRules& rules,
                                       NodeId id) {
  const RiseFall arr = rules.arrival(id, result_);
  const RiseFall lc_arr =
      rules.lc_arrival(rules.has_lc(id), arr, result_.lc_load[id]);

  const bool changed = differs(arr, result_.arrival[id]) ||
                       differs(lc_arr, result_.lc_arrival[id]);
  // Even a sub-kEps wiggle on a port driver shifts the worst-arrival
  // fold, so the staleness test is bitwise, not tolerance-based.
  if (graph_->port_fanout_count(id) > 0 &&
      (arr.rise != result_.arrival[id].rise ||
       arr.fall != result_.arrival[id].fall))
    port_arrival_moved_ = true;
  result_.arrival[id] = arr;
  result_.lc_arrival[id] = lc_arr;
  result_.slack[id] = timing_detail::slack(arr, result_.required[id]);
  return changed;
}

bool IncrementalSta::recompute_required(timing_detail::NodeRules& rules,
                                        NodeId id) {
  const RiseFall req = rules.required(id, result_);
  const bool changed = differs(req, result_.required[id]);
  result_.required[id] = req;
  result_.slack[id] = timing_detail::slack(result_.arrival[id], req);
  return changed;
}

void IncrementalSta::refresh_worst_arrival() {
  // The fold reads only port-driver arrivals; when none of them moved
  // bitwise since the last refresh the cached value is exact already.
  if (!port_arrival_moved_) return;
  port_arrival_moved_ = false;
  result_.worst_arrival = 0.0;
  for (const OutputPort& port : ctx_.net->outputs())
    result_.worst_arrival =
        std::max(result_.worst_arrival,
                 result_.arrival[port.driver].max());
}

void IncrementalSta::on_node_changed(NodeId id) {
  const TimingGraph& g = *graph_;
  DVS_EXPECTS(ctx_.net->is_valid(id));
  // Absorb a possible cell change before touching arcs or caps.
  g.sync_node(id);
  timing_detail::NodeRules rules(ctx_, g);
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
  // fanins' (the node's pin caps change with its cell; its supply decides
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

bool IncrementalSta::matches_full_sta(double eps) const {
  const StaResult fresh = analyze_full();
  const Network& net = *ctx_.net;
  bool ok = true;
  net.for_each_node([&](const Node& n) {
    const NodeId i = n.id;
    if (std::abs(fresh.arrival[i].rise - result_.arrival[i].rise) > eps ||
        std::abs(fresh.arrival[i].fall - result_.arrival[i].fall) > eps ||
        std::abs(fresh.load[i] - result_.load[i]) > eps ||
        std::abs(fresh.lc_load[i] - result_.lc_load[i]) > eps)
      ok = false;
    const bool both_inf = std::isinf(fresh.required[i].rise) &&
                          std::isinf(result_.required[i].rise);
    if (!both_inf &&
        std::abs(fresh.required[i].rise - result_.required[i].rise) > eps)
      ok = false;
  });
  if (std::abs(fresh.worst_arrival - result_.worst_arrival) > eps)
    ok = false;
  return ok;
}

}  // namespace dvs
