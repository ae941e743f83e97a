#include "core/gscale.hpp"

#include <algorithm>
#include <memory>

#include "core/sizing.hpp"
#include "graph/separator.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "timing/cpn.hpp"
#include "timing/graph.hpp"
#include "timing/kernel.hpp"
#include "timing/tcb.hpp"

namespace dvs {

namespace {

struct AppliedResize {
  NodeId id;
  int old_cell;
  double delay_gain;
};

/// Applies every affordable resize in `cut`, then verifies the constraint
/// and, if the fanin-loading side effect broke a zero-slack path, undoes
/// the least useful resizes until it holds again.
void apply_cut_resizes(Design& design, const StaResult& sta,
                       const std::vector<NodeId>& cut, double area_budget) {
  std::vector<AppliedResize> applied;
  double area = design.total_area();
  for (NodeId id : cut) {
    const ResizeOption option = evaluate_upsize(design, sta, id);
    if (!option.available) continue;
    if (area + option.area_penalty > area_budget) continue;
    const int old_cell = design.network().node(id).cell;
    design.network().set_cell(id, option.new_cell);
    area += option.area_penalty;
    applied.push_back({id, old_cell, option.delay_gain});
  }
  if (applied.empty()) return;

  std::sort(applied.begin(), applied.end(),
            [](const AppliedResize& a, const AppliedResize& b) {
              return a.delay_gain < b.delay_gain;
            });
  // The revert search: undo resizes in ascending delay-gain order, one at
  // a time, until the worst arrival meets the constraint.  Each state is
  // timed by the forward half of a full walk on one bound set of rules
  // into one reused result, so every worst arrival is the one a fresh
  // run_sta reports (IncrementalSta's kEps cut-off would not guarantee
  // that) and no walk after the first allocates.
  const TimingContext ctx = design.timing_context();
  std::unique_ptr<const TimingGraph> own;
  const TimingGraph& graph = timing_detail::current_graph(ctx, own);
  timing_detail::NodeRules rules(ctx, graph);
  StaResult walk;
  timing_detail::walk_forward(rules, walk);
  for (std::size_t k = 0;
       k < applied.size() && walk.worst_arrival > design.tspec() + 1e-9;
       ++k) {
    design.network().set_cell(applied[k].id, applied[k].old_cell);
    graph.sync_node(applied[k].id);
    timing_detail::walk_forward(rules, walk);
  }
  DVS_ASSERT(walk.worst_arrival <= design.tspec() + 1e-6);
}

bool same_tcb(std::vector<NodeId> a, std::vector<NodeId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

GscaleResult run_gscale(Design& design, const GscaleOptions& options) {
  GscaleResult result;
  const double area_budget =
      design.original_area() * (1.0 + options.area_budget_ratio);

  CvsResult cvs = run_cvs_with_tcb(design, options.cvs);
  result.cvs_lowered += cvs.num_lowered;
  std::vector<NodeId> tcb = std::move(cvs.tcb);

  Rng rng(options.random_cut_seed);
  int counter = 0;
  while (options.enable_sizing) {
    if (tcb.empty()) break;  // the whole circuit is already low
    if (design.total_area() >= area_budget) break;

    const StaResult sta = design.run_timing();
    const CriticalPathNetwork cpn = extract_cpn(
        design.timing_context(), sta, tcb, options.cpn_window);
    if (cpn.empty()) break;

    // weight_with_area_versus_time_gain: area penalty per ns gained for a
    // one-step upsize; gates that cannot improve get a prohibitive (but
    // finite, so the cut stays well-defined) weight.
    SeparatorProblem problem;
    problem.num_nodes = static_cast<int>(cpn.nodes.size());
    std::vector<int> index_of(design.network().size(), -1);
    for (int i = 0; i < problem.num_nodes; ++i)
      index_of[cpn.nodes[i]] = i;
    problem.weight.assign(problem.num_nodes, 0.0);
    for (int i = 0; i < problem.num_nodes; ++i) {
      if (options.selector == GscaleOptions::CutSelector::kRandomCut) {
        problem.weight[i] = 0.5 + rng.next_double();
        continue;
      }
      const ResizeOption option =
          evaluate_upsize(design, sta, cpn.nodes[i]);
      problem.weight[i] =
          option.available ? std::max(option.weight, 1e-6) : 1e9;
    }
    for (const auto& [u, v] : cpn.edges)
      problem.edges.emplace_back(index_of[u], index_of[v]);
    for (NodeId s : cpn.sources) problem.sources.push_back(index_of[s]);
    for (NodeId t : cpn.sinks) problem.sinks.push_back(index_of[t]);

    const SeparatorResult cut =
        min_weight_separator(problem, options.flow_algo);
    std::vector<NodeId> cut_nodes;
    for (int i : cut.selected) cut_nodes.push_back(cpn.nodes[i]);

    apply_cut_resizes(design, sta, cut_nodes, area_budget);

    CvsResult push = run_cvs_with_tcb(design, options.cvs);
    result.cvs_lowered += push.num_lowered;
    ++result.iterations;

    if (same_tcb(tcb, push.tcb))
      ++counter;
    else
      counter = 0;
    tcb = std::move(push.tcb);
    if (counter > options.max_iter) break;
  }

  result.area_increase_ratio =
      design.original_area() > 0.0
          ? (design.total_area() - design.original_area()) /
                design.original_area()
          : 0.0;
  result.num_resized = design.count_resized();
  return result;
}

}  // namespace dvs
