// Combinational gate-level network, the substrate every algorithm in this
// library operates on.  Deliberately SIS-like: a network is a DAG of nodes
// (primary inputs, constants, logic gates) plus a list of named output
// ports referencing driver nodes.
//
// Nodes are identified by dense integer NodeId.  Removal tombstones a node
// (`dead`), so ids held by client code stay valid until `compact()` is
// called; all iteration helpers skip dead nodes.
//
// Every gate carries its own truth table over its fanins (fanins[0] is the
// least-significant input, table bit `i` is the output for input pattern
// `i`).  Mapped gates additionally carry a library cell index; keeping the
// function on the node keeps simulation independent of the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/contracts.hpp"

namespace dvs {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;
inline constexpr int kMaxGateInputs = 6;

enum class NodeKind : std::uint8_t { kInput, kGate, kConstant };

/// Truth table over up to kMaxGateInputs variables, packed into 64 bits.
struct TruthTable {
  std::uint64_t bits = 0;
  int num_vars = 0;

  bool eval(std::uint32_t input_pattern) const {
    DVS_EXPECTS(input_pattern < (1u << num_vars));
    return (bits >> input_pattern) & 1u;
  }

  /// Mask of the meaningful bits of `bits`.
  std::uint64_t mask() const {
    return num_vars == 6 ? ~0ULL : ((1ULL << (1 << num_vars)) - 1);
  }

  bool operator==(const TruthTable& o) const {
    return num_vars == o.num_vars && (bits & mask()) == (o.bits & o.mask());
  }
};

/// True iff the function is positive (negative) unate in variable `var`;
/// used by the mapper and by rise/fall propagation in the STA.
bool is_positive_unate(const TruthTable& tt, int var);
bool is_negative_unate(const TruthTable& tt, int var);

struct Node {
  NodeId id = kNoNode;
  std::string name;
  NodeKind kind = NodeKind::kGate;
  bool dead = false;

  /// Library cell index, or -1 while unmapped.
  int cell = -1;
  TruthTable function;
  bool constant_value = false;  // for kConstant nodes
  /// How many output ports this node drives (kept by Network, like the
  /// fanout list), so removal and sweeping never scan the port list.
  int ports_driven = 0;

  std::vector<NodeId> fanins;
  std::vector<NodeId> fanouts;

  bool is_gate() const { return kind == NodeKind::kGate; }
  bool is_input() const { return kind == NodeKind::kInput; }
  bool is_constant() const { return kind == NodeKind::kConstant; }
};

/// Invokes `fn(NodeId)` once per *distinct* fanout of `node`.  A sink
/// reading the node on several pins appears once per pin in the fanout
/// list; load/timing walks must visit it once and then scan all of its
/// pins.  Small lists use an in-place scan; large ones sort a scratch
/// copy, so a k-pin fanout costs O(k log k) instead of O(k^2).  Every
/// caller sees the same visit order, keeping float accumulation across
/// the full and incremental analyses bit-identical.
template <typename Fn>
void for_each_unique_fanout(const Node& node, Fn&& fn) {
  const std::vector<NodeId>& fo = node.fanouts;
  if (fo.size() <= 16) {
    for (std::size_t k = 0; k < fo.size(); ++k) {
      bool seen_before = false;
      for (std::size_t j = 0; j < k && !seen_before; ++j)
        seen_before = fo[j] == fo[k];
      if (!seen_before) fn(fo[k]);
    }
    return;
  }
  std::vector<NodeId> uniq(fo.begin(), fo.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (NodeId v : uniq) fn(v);
}

/// A named primary output port and the node that drives it.
struct OutputPort {
  std::string name;
  NodeId driver = kNoNode;
};

class Network {
 public:
  explicit Network(std::string name = "top") : name_(std::move(name)) {}

  // Copies and moves restamp the structural version (source included for
  // moves): a network object that changes content wholesale must never
  // keep a version a compiled view could mistake for its own.
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&& other) noexcept;
  Network& operator=(Network&& other) noexcept;

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction -------------------------------------------------
  NodeId add_input(std::string name);
  NodeId add_constant(bool value, std::string name = "");
  /// Adds a gate computing `function` over `fanins`; `cell` may be -1.
  NodeId add_gate(TruthTable function, std::vector<NodeId> fanins,
                  int cell = -1, std::string name = "");
  void add_output(std::string port_name, NodeId driver);

  // ---- access --------------------------------------------------------
  /// Total id space, including dead slots.
  int size() const { return static_cast<int>(nodes_.size()); }
  const Node& node(NodeId id) const;
  Node& node(NodeId id);
  bool is_valid(NodeId id) const {
    return id >= 0 && id < size() && !nodes_[id].dead;
  }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<OutputPort>& outputs() const { return outputs_; }

  int num_gates() const;
  int num_live_nodes() const;

  /// Invokes `fn(const Node&)` on every live node in id order.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    for (const Node& n : nodes_)
      if (!n.dead) fn(n);
  }
  template <typename Fn>
  void for_each_gate(Fn&& fn) const {
    for (const Node& n : nodes_)
      if (!n.dead && n.is_gate()) fn(n);
  }

  // ---- mutation -------------------------------------------------------
  /// Changes the mapped cell of a gate (e.g. resizing); the function is
  /// unchanged, so the new cell must be logically equivalent.
  void set_cell(NodeId id, int cell);

  /// Redirects every occurrence of `old_fanin` in `node`'s fanin list to
  /// `new_fanin`, maintaining fanout lists on both sides.
  void replace_fanin(NodeId node, NodeId old_fanin, NodeId new_fanin);

  /// Replaces every use of `old_node` (gate fanins and output ports) with
  /// `new_node`, then marks `old_node` dead.  The moved readers join the
  /// end of `new_node`'s fanout list in `old_node`'s list order; the cost
  /// is proportional to the pins and ports moved.
  void replace_uses(NodeId old_node, NodeId new_node);

  /// Inserts a single-input gate (e.g. buffer or level converter) between
  /// `driver` and the subset `moved` of its fanout gates.  Output ports in
  /// `moved_ports` (indices into outputs()) are rerouted as well.  Returns
  /// the new node.
  NodeId insert_between(NodeId driver, const std::vector<NodeId>& moved,
                        const std::vector<int>& moved_ports,
                        TruthTable function, int cell, std::string name);

  /// Marks the node dead.  It must have no remaining fanouts or port uses.
  void remove_node(NodeId id);

  /// Removes gates that reach no primary output, working back from each
  /// gate that has no reader.  Returns #removed.
  int sweep_dangling();

  /// Rebuilds the network without dead slots; node ids change.
  void compact();

  /// Structural sanity check: each fanout list holds exactly the readers
  /// its node's fanins name (once per pin), live references only, port
  /// counts, acyclicity.  Linear in the network's size; aborts (contract
  /// failure) on violation.
  void check() const;

  /// Process-unique stamp renewed by every structural mutation (node or
  /// port creation, rewiring, removal, compaction) and by whole-object
  /// copies/moves.  Point changes that leave the topology alone
  /// (`set_cell`) keep it.  Compiled views of the network
  /// (timing/graph.hpp) key their validity on it; drawing stamps from one
  /// global counter means two different topologies can never share one.
  std::uint64_t structural_version() const { return structural_version_; }

 private:
  NodeId new_node(NodeKind kind, std::string name);
  void bump_structural_version();

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<OutputPort> outputs_;
  std::uint64_t structural_version_ = 0;
};

// Convenience truth tables for common functions (n-input where stated).
TruthTable tt_const(bool value);
TruthTable tt_buf();
TruthTable tt_inv();
TruthTable tt_and(int n);
TruthTable tt_or(int n);
TruthTable tt_nand(int n);
TruthTable tt_nor(int n);
TruthTable tt_xor(int n);
TruthTable tt_xnor(int n);
/// 2:1 multiplexer: fanins (a, b, s) -> s ? b : a.
TruthTable tt_mux2();
/// AND-OR-invert / OR-AND-invert structures used by standard cells.
TruthTable tt_aoi21();   // !((a&b) | c)
TruthTable tt_oai21();   // !((a|b) & c)
TruthTable tt_aoi22();   // !((a&b) | (c&d))
TruthTable tt_oai22();   // !((a|b) & (c|d))
TruthTable tt_aoi211();  // !((a&b) | c | d)
TruthTable tt_oai211();  // !((a|b) & c & d)
/// Full-adder majority (carry): ab | ac | bc.
TruthTable tt_maj3();

}  // namespace dvs
