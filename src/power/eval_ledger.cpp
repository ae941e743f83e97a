#include "power/eval_ledger.hpp"

#include "support/contracts.hpp"
#include "timing/graph.hpp"
#include "timing/kernel.hpp"

namespace dvs {

EvalLedger::EvalLedger(const PowerContext& ctx) : ctx_(ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const std::size_t n = static_cast<std::size_t>(ctx.net->size());
  DVS_EXPECTS(ctx.node_level.size() >= n && ctx.alpha01.size() >= n);
  DVS_EXPECTS(ctx.original_cells.size() >= n);
  const TimingContext tctx = ctx.timing();
  graph_ = &timing_detail::current_graph(tctx, own_graph_);
  rules_ = std::make_unique<timing_detail::NodeRules>(tctx, *graph_);
  const Library& lib = *ctx.lib;
  if (lib.level_converter() >= 0)
    converter_area_ = lib.cell(lib.level_converter()).area;
  rebuild();
}

EvalLedger::~EvalLedger() = default;

void EvalLedger::rebuild() {
  DVS_EXPECTS(graph_->describes(*ctx_.net, *ctx_.lib));
  graph_->sync_cells();
  const std::size_t n = static_cast<std::size_t>(ctx_.net->size());
  power_.assign(n, NodePower{});
  cell_area_.assign(n, 0.0);
  flags_.assign(n, 0);
  low_ = level_converters_ = resized_ = 0;
  for (NodeId id : graph_->topo_order()) compute(id);
}

void EvalLedger::on_node_changed(NodeId id) {
  DVS_EXPECTS(ctx_.net->is_valid(id));
  graph_->sync_node(id);  // a new cell moves pin caps on the fanins' entries
  compute(id);
  for (NodeId fi : graph_->fanins(id)) compute(fi);
}

void EvalLedger::compute(NodeId id) {
  ++terms_computed_;
  const Node& node = ctx_.net->node(id);
  const timing_detail::LoadSplit load = rules_->load(id);
  power_[id] = node_power(ctx_, node, load.direct, load.lc, load.lc_pins);
  if (!node.is_gate()) return;

  cell_area_[id] = node.cell >= 0 ? ctx_.lib->cell(node.cell).area : 0.0;
  const int original = ctx_.original_cells[id];
  const std::uint8_t now =
      (ctx_.node_level[id] != kTopRung ? kLow : 0) |
      (load.lc_pins > 0 ? kLevelConverter : 0) |
      (original >= 0 && node.cell != original ? kResized : 0);
  const std::uint8_t before = flags_[id];
  const auto delta = [&](Flag f) {
    return ((now & f) != 0 ? 1 : 0) - ((before & f) != 0 ? 1 : 0);
  };
  low_ += delta(kLow);
  level_converters_ += delta(kLevelConverter);
  resized_ += delta(kResized);
  flags_[id] = now;
}

EvalLedger::Totals EvalLedger::totals() const {
  // Five independent chains of dependent adds in one pass, so the area's
  // runs beside the power categories'.  Converter-less gates skip their
  // +0.0 converter term, which shortens the area chain and moves no bit.
  double switching = 0.0, internal = 0.0, converter = 0.0, leakage = 0.0;
  double area = 0.0;
  for (std::size_t id = 0; id < power_.size(); ++id) {
    const NodePower& t = power_[id];
    switching += t.switching;
    internal += t.internal;
    converter += t.converter;
    leakage += t.leakage;
    area += cell_area_[id];
    if ((flags_[id] & kLevelConverter) != 0) area += converter_area_;
  }
  Totals totals;
  totals.power.switching = switching;
  totals.power.internal = internal;
  totals.power.converter = converter;
  totals.power.leakage = leakage;
  totals.area = area;
  return totals;
}

std::size_t EvalLedger::bytes() const {
  return power_.capacity() * sizeof(NodePower) +
         cell_area_.capacity() * sizeof(double) +
         flags_.capacity() * sizeof(std::uint8_t);
}

}  // namespace dvs
