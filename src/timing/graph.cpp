#include "timing/graph.hpp"

#include <memory>

#include "netlist/topo.hpp"
#include "support/contracts.hpp"
#include "timing/kernel.hpp"

namespace dvs {

namespace {

double pin_cap_of(const Library& lib, const Node& sink, int pin) {
  if (sink.cell >= 0) return lib.cell(sink.cell).input_cap[pin];
  return timing_detail::kDefaultPinCap;
}

TimingArc arc_of(const Library& lib, const Node& gate, int pin) {
  if (gate.cell >= 0) return lib.cell(gate.cell).arcs[pin];
  return timing_detail::default_arc(gate.function, pin);
}

}  // namespace

TimingGraph::TimingGraph(const Network& net, const Library& lib)
    : net_(&net), lib_(&lib) {
  compile();
}

void TimingGraph::compile() {
  const Network& net = *net_;
  const Library& lib = *lib_;
  const int n = net.size();
  structural_version_ = net.structural_version();

  topo_order_ = dvs::topo_order(net);
  topo_rank_.assign(n, 0);
  for (std::size_t i = 0; i < topo_order_.size(); ++i)
    topo_rank_[topo_order_[i]] = static_cast<int>(i);

  gate_flag_.assign(n, 0);
  port_count_.assign(n, 0);
  cell_.assign(n, -1);
  net.for_each_node([&](const Node& node) {
    gate_flag_[node.id] = node.is_gate() ? 1 : 0;
    cell_[node.id] = node.cell;
  });
  for (const OutputPort& port : net.outputs()) ++port_count_[port.driver];

  // ---- fanin CSR + pre-resolved arcs -----------------------------------
  fanin_offset_.assign(n + 1, 0);
  net.for_each_node([&](const Node& node) {
    fanin_offset_[node.id + 1] = static_cast<std::int32_t>(node.fanins.size());
  });
  for (int i = 0; i < n; ++i) fanin_offset_[i + 1] += fanin_offset_[i];
  fanin_.assign(fanin_offset_[n], kNoNode);
  arc_.assign(fanin_offset_[n], TimingArc{});
  net.for_each_node([&](const Node& node) {
    const std::int32_t base = fanin_offset_[node.id];
    for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
      fanin_[base + pin] = node.fanins[pin];
      arc_[base + pin] = arc_of(lib, node, static_cast<int>(pin));
    }
  });

  // ---- unique-fanout pin entries ---------------------------------------
  // Built with for_each_unique_fanout itself so the entry order (and with
  // it every float accumulation downstream) matches the seed walks.
  entry_offset_.assign(n + 1, 0);
  uniq_offset_.assign(n + 1, 0);
  entry_.clear();
  entry_cap_.clear();
  uniq_.clear();
  for (int u = 0; u < n; ++u) {
    if (net.is_valid(u)) {
      const Node& driver = net.node(u);
      for_each_unique_fanout(driver, [&](NodeId vid) {
        const Node& sink = net.node(vid);
        uniq_.push_back(vid);
        for (std::size_t pin = 0; pin < sink.fanins.size(); ++pin) {
          if (sink.fanins[pin] != u) continue;
          entry_.push_back({vid, static_cast<std::int32_t>(pin)});
          entry_cap_.push_back(pin_cap_of(lib, sink, static_cast<int>(pin)));
        }
      });
    }
    entry_offset_[u + 1] = static_cast<std::int32_t>(entry_.size());
    uniq_offset_[u + 1] = static_cast<std::int32_t>(uniq_.size());
  }

  // Cross-link: pin k of sink v is exactly one entry on its driver's list.
  fanin_entry_.assign(fanin_.size(), -1);
  for (std::size_t e = 0; e < entry_.size(); ++e)
    fanin_entry_[fanin_offset_[entry_[e].sink] + entry_[e].pin] =
        static_cast<std::int32_t>(e);
}

void TimingGraph::patch_cell(NodeId id) const {
  const Node& node = net_->node(id);
  cell_[id] = node.cell;
  if (!node.is_gate()) return;
  const std::int32_t base = fanin_offset_[id];
  for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
    arc_[base + pin] = arc_of(*lib_, node, static_cast<int>(pin));
    entry_cap_[fanin_entry_[base + pin]] =
        pin_cap_of(*lib_, node, static_cast<int>(pin));
  }
}

void TimingGraph::sync_node(NodeId id) const {
  DVS_EXPECTS(net_->is_valid(id));
  if (cell_[id] != net_->node(id).cell) patch_cell(id);
}

void TimingGraph::sync_cells() const {
  for (NodeId id : topo_order_)
    if (cell_[id] != net_->node(id).cell) patch_cell(id);
}

namespace timing_detail {

const TimingGraph& current_graph(const TimingContext& ctx,
                                 std::unique_ptr<const TimingGraph>& own) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  const TimingGraph* g = ctx.graph;
  if (g == nullptr || !g->describes(net, lib)) {
    if (!own || !own->describes(net, lib)) {
      own = std::make_unique<const TimingGraph>(net, lib);
      return *own;
    }
    g = own.get();
  }
  g->sync_cells();
  return *g;
}

}  // namespace timing_detail

}  // namespace dvs
