#include "core/design.hpp"

#include "core/boundary.hpp"
#include "support/contracts.hpp"

namespace dvs {

Design::Design(Network net, const Library& lib, double tspec)
    : net_(std::move(net)), lib_(&lib) {
  const int n = net_.size();
  levels_.assign(n, kTopRung);
  lc_flags_.assign(n, 0);
  original_cells_.assign(n, -1);
  net_.for_each_gate([&](const Node& g) {
    original_cells_[g.id] = g.cell;
    if (g.cell >= 0) original_area_ += lib.cell(g.cell).area;
  });
  if (tspec < 0.0) {
    const StaResult sta = run_timing();
    tspec_ = sta.worst_arrival;
  } else {
    tspec_ = tspec;
  }
}

SupplyId Design::level(NodeId id) const {
  DVS_EXPECTS(id >= 0 && id < static_cast<NodeId>(levels_.size()));
  return levels_[id];
}

void Design::set_level(NodeId id, SupplyId level) {
  DVS_EXPECTS(net_.is_valid(id) && net_.node(id).is_gate());
  DVS_EXPECTS(level < supplies().depth());
  levels_[id] = level;
  // The boundary can change at this node and at each gate fanin.
  refresh_boundary_around(*this, id);
}

int Design::count_low() const {
  int count = 0;
  net_.for_each_gate([&](const Node& g) {
    if (levels_[g.id] != kTopRung) ++count;
  });
  return count;
}

std::vector<int> Design::count_per_level() const {
  std::vector<int> counts(supplies().depth(), 0);
  net_.for_each_gate([&](const Node& g) { ++counts[levels_[g.id]]; });
  return counts;
}

int Design::count_lcs() const {
  int count = 0;
  net_.for_each_gate([&](const Node& g) {
    if (lc_flags_[g.id]) ++count;
  });
  return count;
}

void Design::sync_with_network() {
  const int n = net_.size();
  levels_.resize(n, kTopRung);
  lc_flags_.resize(n, 0);
  original_cells_.resize(n, -1);
  activity_valid_ = false;
  recompute_boundary(*this);
}

int Design::original_cell(NodeId id) const {
  DVS_EXPECTS(id >= 0 && id < static_cast<NodeId>(original_cells_.size()));
  return original_cells_[id];
}

int Design::count_resized() const {
  int count = 0;
  net_.for_each_gate([&](const Node& g) {
    if (original_cells_[g.id] >= 0 && g.cell != original_cells_[g.id])
      ++count;
  });
  return count;
}

const TimingGraph& Design::timing_graph() const {
  if (!graph_.graph || !graph_.graph->describes(net_, *lib_))
    graph_.graph = std::make_shared<TimingGraph>(net_, *lib_);
  return *graph_.graph;
}

TimingContext Design::timing_context() const {
  TimingContext ctx;
  ctx.net = &net_;
  ctx.lib = lib_;
  ctx.node_level = levels_;
  ctx.graph = &timing_graph();
  ctx.graph_owner = graph_.graph;
  return ctx;
}

StaResult Design::run_timing() const {
  return run_sta(timing_context(), tspec_);
}

const Activity& Design::activity() const {
  if (!activity_valid_) {
    activity_ =
        estimate_activity(net_, activity_options_,
                          timing_graph().topo_order());
    activity_valid_ = true;
  }
  return activity_;
}

void Design::set_activity_options(const ActivityOptions& options) {
  activity_options_ = options;
  activity_valid_ = false;
}

void Design::adopt_activity(Activity activity) {
  activity_ = std::move(activity);
  activity_valid_ = true;
}

PowerContext Design::power_context() const {
  PowerContext ctx;
  ctx.net = &net_;
  ctx.lib = lib_;
  ctx.node_level = levels_;
  ctx.alpha01 = activity().alpha01;
  ctx.freq_mhz = freq_mhz_;
  ctx.graph = &timing_graph();
  ctx.original_cells = original_cells_;
  return ctx;
}

PowerBreakdown Design::run_power() const {
  return compute_power(power_context());
}

double Design::total_area() const {
  double area = 0.0;
  const int lc = lib_->level_converter();
  net_.for_each_gate([&](const Node& g) {
    if (g.cell >= 0) area += lib_->cell(g.cell).area;
    if (lc_flags_[g.id] && lc >= 0) area += lib_->cell(lc).area;
  });
  return area;
}

}  // namespace dvs
