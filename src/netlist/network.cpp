#include "netlist/network.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_set>

namespace dvs {

namespace {

/// Removes the first occurrence of `value` from `vec`.
void erase_one(std::vector<NodeId>& vec, NodeId value) {
  auto it = std::find(vec.begin(), vec.end(), value);
  DVS_ASSERT(it != vec.end());
  vec.erase(it);
}

std::uint64_t next_structural_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void Network::bump_structural_version() {
  structural_version_ = next_structural_stamp();
}

Network::Network(const Network& other)
    : name_(other.name_),
      nodes_(other.nodes_),
      inputs_(other.inputs_),
      outputs_(other.outputs_) {
  bump_structural_version();
}

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  nodes_ = other.nodes_;
  inputs_ = other.inputs_;
  outputs_ = other.outputs_;
  bump_structural_version();
  return *this;
}

Network::Network(Network&& other) noexcept
    : name_(std::move(other.name_)),
      nodes_(std::move(other.nodes_)),
      inputs_(std::move(other.inputs_)),
      outputs_(std::move(other.outputs_)) {
  bump_structural_version();
  other.bump_structural_version();
}

Network& Network::operator=(Network&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  nodes_ = std::move(other.nodes_);
  inputs_ = std::move(other.inputs_);
  outputs_ = std::move(other.outputs_);
  bump_structural_version();
  other.bump_structural_version();
  return *this;
}

bool is_positive_unate(const TruthTable& tt, int var) {
  DVS_EXPECTS(var >= 0 && var < tt.num_vars);
  const std::uint32_t patterns = 1u << tt.num_vars;
  for (std::uint32_t p = 0; p < patterns; ++p) {
    if (p & (1u << var)) continue;
    const bool lo = tt.eval(p);
    const bool hi = tt.eval(p | (1u << var));
    if (lo && !hi) return false;
  }
  return true;
}

bool is_negative_unate(const TruthTable& tt, int var) {
  DVS_EXPECTS(var >= 0 && var < tt.num_vars);
  const std::uint32_t patterns = 1u << tt.num_vars;
  for (std::uint32_t p = 0; p < patterns; ++p) {
    if (p & (1u << var)) continue;
    const bool lo = tt.eval(p);
    const bool hi = tt.eval(p | (1u << var));
    if (!lo && hi) return false;
  }
  return true;
}

NodeId Network::new_node(NodeKind kind, std::string name) {
  bump_structural_version();
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.kind = kind;
  n.name = name.empty() ? std::string("n").append(std::to_string(n.id))
                        : std::move(name);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

NodeId Network::add_input(std::string name) {
  const NodeId id = new_node(NodeKind::kInput, std::move(name));
  inputs_.push_back(id);
  return id;
}

NodeId Network::add_constant(bool value, std::string name) {
  const NodeId id = new_node(NodeKind::kConstant, std::move(name));
  nodes_[id].constant_value = value;
  nodes_[id].function = tt_const(value);
  return id;
}

NodeId Network::add_gate(TruthTable function, std::vector<NodeId> fanins,
                         int cell, std::string name) {
  DVS_EXPECTS(function.num_vars == static_cast<int>(fanins.size()));
  DVS_EXPECTS(function.num_vars <= kMaxGateInputs);
  for (NodeId f : fanins) DVS_EXPECTS(is_valid(f));
  const NodeId id = new_node(NodeKind::kGate, std::move(name));
  nodes_[id].function = function;
  nodes_[id].cell = cell;
  nodes_[id].fanins = std::move(fanins);
  for (NodeId f : nodes_[id].fanins) nodes_[f].fanouts.push_back(id);
  return id;
}

void Network::add_output(std::string port_name, NodeId driver) {
  DVS_EXPECTS(is_valid(driver));
  bump_structural_version();
  outputs_.push_back(OutputPort{std::move(port_name), driver});
  ++nodes_[driver].ports_driven;
}

const Node& Network::node(NodeId id) const {
  DVS_EXPECTS(id >= 0 && id < size());
  return nodes_[id];
}

Node& Network::node(NodeId id) {
  DVS_EXPECTS(id >= 0 && id < size());
  return nodes_[id];
}

int Network::num_gates() const {
  int count = 0;
  for_each_gate([&](const Node&) { ++count; });
  return count;
}

int Network::num_live_nodes() const {
  int count = 0;
  for_each_node([&](const Node&) { ++count; });
  return count;
}

void Network::set_cell(NodeId id, int cell) {
  DVS_EXPECTS(is_valid(id) && nodes_[id].is_gate());
  nodes_[id].cell = cell;
}

void Network::replace_fanin(NodeId node_id, NodeId old_fanin,
                            NodeId new_fanin) {
  DVS_EXPECTS(is_valid(node_id) && is_valid(new_fanin));
  bump_structural_version();
  Node& n = nodes_[node_id];
  auto it = std::find(n.fanins.begin(), n.fanins.end(), old_fanin);
  DVS_EXPECTS(it != n.fanins.end());
  *it = new_fanin;
  erase_one(nodes_[old_fanin].fanouts, node_id);
  nodes_[new_fanin].fanouts.push_back(node_id);
}

void Network::replace_uses(NodeId old_node, NodeId new_node) {
  DVS_EXPECTS(is_valid(old_node) && is_valid(new_node));
  DVS_EXPECTS(old_node != new_node);
  bump_structural_version();
  Node& from = nodes_[old_node];
  Node& to = nodes_[new_node];
  // A reader is listed once per pin that reads old_node; its first
  // listing rewires all of those pins, so every pin is rewired once.
  std::size_t rewired = 0;
  for (NodeId reader : from.fanouts) {
    DVS_EXPECTS(is_valid(reader));
    for (NodeId& f : nodes_[reader].fanins)
      if (f == old_node) {
        f = new_node;
        ++rewired;
      }
  }
  DVS_ASSERT(rewired == from.fanouts.size());
  to.fanouts.insert(to.fanouts.end(), from.fanouts.begin(),
                    from.fanouts.end());
  from.fanouts.clear();
  if (from.ports_driven > 0) {
    for (OutputPort& port : outputs_)
      if (port.driver == old_node) port.driver = new_node;
    to.ports_driven += from.ports_driven;
    from.ports_driven = 0;
  }
  remove_node(old_node);
}

NodeId Network::insert_between(NodeId driver,
                               const std::vector<NodeId>& moved,
                               const std::vector<int>& moved_ports,
                               TruthTable function, int cell,
                               std::string name) {
  DVS_EXPECTS(is_valid(driver));
  DVS_EXPECTS(function.num_vars == 1);
  const NodeId mid = add_gate(function, {driver}, cell, std::move(name));
  for (NodeId m : moved) {
    DVS_EXPECTS(is_valid(m));
    replace_fanin(m, driver, mid);
  }
  for (int port_index : moved_ports) {
    DVS_EXPECTS(port_index >= 0 &&
                port_index < static_cast<int>(outputs_.size()));
    DVS_EXPECTS(outputs_[port_index].driver == driver);
    outputs_[port_index].driver = mid;
    --nodes_[driver].ports_driven;
    ++nodes_[mid].ports_driven;
  }
  return mid;
}

void Network::remove_node(NodeId id) {
  DVS_EXPECTS(is_valid(id));
  bump_structural_version();
  Node& n = nodes_[id];
  DVS_EXPECTS(n.fanouts.empty());
  DVS_EXPECTS(n.ports_driven == 0);
  for (NodeId f : n.fanins) erase_one(nodes_[f].fanouts, id);
  n.fanins.clear();
  if (n.is_input()) erase_one(inputs_, id);
  n.dead = true;
}

int Network::sweep_dangling() {
  const auto dangling = [&](NodeId id) {
    const Node& n = nodes_[id];
    return !n.dead && n.is_gate() && n.fanouts.empty() && n.ports_driven == 0;
  };
  // Removing a dangling gate can strand its fanins, so each removal queues
  // them; a queued node is removed only if it dangles when popped.  The
  // dead set, and what is left of every fanout list, do not depend on the
  // order of removal.
  std::vector<NodeId> work;
  for (const Node& n : nodes_)
    if (dangling(n.id)) work.push_back(n.id);
  int removed = 0;
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    if (!dangling(id)) continue;
    const std::vector<NodeId>& fanins = nodes_[id].fanins;
    work.insert(work.end(), fanins.begin(), fanins.end());
    remove_node(id);
    ++removed;
  }
  return removed;
}

void Network::compact() {
  bump_structural_version();
  std::vector<NodeId> remap(nodes_.size(), kNoNode);
  std::vector<Node> live;
  live.reserve(nodes_.size());
  for (Node& n : nodes_) {
    if (n.dead) continue;
    remap[n.id] = static_cast<NodeId>(live.size());
    live.push_back(std::move(n));
  }
  for (Node& n : live) {
    n.id = remap[n.id];
    for (NodeId& f : n.fanins) f = remap[f];
    for (NodeId& f : n.fanouts) f = remap[f];
  }
  nodes_ = std::move(live);
  for (NodeId& id : inputs_) id = remap[id];
  for (OutputPort& port : outputs_) port.driver = remap[port.driver];
}

void Network::check() const {
  std::vector<int> ports(nodes_.size(), 0);
  for (const OutputPort& port : outputs_) {
    DVS_ASSERT(is_valid(port.driver));
    ++ports[port.driver];
  }
  for (NodeId id : inputs_) DVS_ASSERT(is_valid(id));

  // Fanout lists against fanins, as multisets, in time linear in the
  // pins: every reader a list names must read the node on exactly as many
  // pins as the list names it, and the lists must hold one entry per pin
  // in the network, so no pin lacks its entry either.
  std::vector<int> listed(nodes_.size(), 0);
  std::size_t pins = 0;
  std::size_t entries = 0;
  for (const Node& n : nodes_) {
    if (n.dead) continue;
    DVS_ASSERT(n.function.num_vars == static_cast<int>(n.fanins.size()) ||
               !n.is_gate());
    DVS_ASSERT(n.ports_driven == ports[n.id]);
    for (NodeId f : n.fanins) DVS_ASSERT(is_valid(f));
    pins += n.fanins.size();
    entries += n.fanouts.size();
    for (NodeId r : n.fanouts) {
      DVS_ASSERT(is_valid(r));
      ++listed[r];
    }
    for (NodeId r : n.fanouts) {
      if (listed[r] == 0) continue;  // compared at its first entry
      const auto& fi = nodes_[r].fanins;
      DVS_ASSERT(std::count(fi.begin(), fi.end(), n.id) == listed[r]);
      listed[r] = 0;
    }
  }
  DVS_ASSERT(pins == entries);

  // Acyclicity via iterative DFS with colors.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(nodes_.size(), kWhite);
  std::vector<std::pair<NodeId, int>> stack;
  for (const Node& root : nodes_) {
    if (root.dead || color[root.id] != kWhite) continue;
    stack.emplace_back(root.id, 0);
    color[root.id] = kGray;
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const Node& n = nodes_[id];
      if (next < static_cast<int>(n.fanins.size())) {
        const NodeId child = n.fanins[next++];
        DVS_ASSERT(color[child] != kGray);  // gray->gray edge == cycle
        if (color[child] == kWhite) {
          color[child] = kGray;
          stack.emplace_back(child, 0);
        }
      } else {
        color[id] = kBlack;
        stack.pop_back();
      }
    }
  }
}

// ---- truth-table constructors ---------------------------------------

TruthTable tt_const(bool value) {
  return TruthTable{value ? 1ULL : 0ULL, 0};
}

TruthTable tt_buf() { return TruthTable{0b10ULL, 1}; }
TruthTable tt_inv() { return TruthTable{0b01ULL, 1}; }

TruthTable tt_and(int n) {
  DVS_EXPECTS(n >= 1 && n <= kMaxGateInputs);
  TruthTable tt{0, n};
  tt.bits = 1ULL << ((1u << n) - 1);
  return tt;
}

TruthTable tt_or(int n) {
  DVS_EXPECTS(n >= 1 && n <= kMaxGateInputs);
  TruthTable tt{0, n};
  tt.bits = tt.mask() & ~1ULL;
  return tt;
}

TruthTable tt_nand(int n) {
  TruthTable tt = tt_and(n);
  tt.bits = ~tt.bits & tt.mask();
  return tt;
}

TruthTable tt_nor(int n) {
  TruthTable tt = tt_or(n);
  tt.bits = ~tt.bits & tt.mask();
  return tt;
}

TruthTable tt_xor(int n) {
  DVS_EXPECTS(n >= 1 && n <= kMaxGateInputs);
  TruthTable tt{0, n};
  for (std::uint32_t p = 0; p < (1u << n); ++p)
    if (__builtin_popcount(p) & 1) tt.bits |= 1ULL << p;
  return tt;
}

TruthTable tt_xnor(int n) {
  TruthTable tt = tt_xor(n);
  tt.bits = ~tt.bits & tt.mask();
  return tt;
}

namespace {

/// Builds a truth table from a lambda over the input pattern bits.
template <typename Fn>
TruthTable tt_from(int n, Fn&& fn) {
  TruthTable tt{0, n};
  for (std::uint32_t p = 0; p < (1u << n); ++p) {
    auto bit = [&](int i) { return (p >> i) & 1u; };
    if (fn(bit)) tt.bits |= 1ULL << p;
  }
  return tt;
}

}  // namespace

TruthTable tt_mux2() {
  return tt_from(3, [](auto b) { return b(2) ? b(1) : b(0); });
}

TruthTable tt_aoi21() {
  return tt_from(3, [](auto b) { return !((b(0) & b(1)) | b(2)); });
}

TruthTable tt_oai21() {
  return tt_from(3, [](auto b) { return !((b(0) | b(1)) & b(2)); });
}

TruthTable tt_aoi22() {
  return tt_from(4, [](auto b) { return !((b(0) & b(1)) | (b(2) & b(3))); });
}

TruthTable tt_oai22() {
  return tt_from(4, [](auto b) { return !((b(0) | b(1)) & (b(2) | b(3))); });
}

TruthTable tt_aoi211() {
  return tt_from(4, [](auto b) { return !((b(0) & b(1)) | b(2) | b(3)); });
}

TruthTable tt_oai211() {
  return tt_from(4, [](auto b) { return !((b(0) | b(1)) & b(2) & b(3)); });
}

TruthTable tt_maj3() {
  return tt_from(3, [](auto b) {
    return (b(0) & b(1)) | (b(0) & b(2)) | (b(1) & b(2));
  });
}

}  // namespace dvs
