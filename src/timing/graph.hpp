// Compiled flat timing graph: a one-shot compilation of a Network +
// Library into an immutable CSR / struct-of-arrays form that the timing
// kernel's rules (timing/kernel.hpp) and the Dscale candidate scan walk
// instead of chasing pointers through AoS Node objects.
//
// What the compilation precomputes:
//   - flat fanin adjacency (CSR) with one pre-resolved TimingArc per pin,
//     including the unateness-derived default arcs of unmapped gates that
//     the seed STA recomputed on every evaluation;
//   - per-driver *unique*-fanout pin entries (sink, pin, pin-cap) laid out
//     in the exact visit order of `for_each_unique_fanout` + ascending pin
//     scan, so float accumulation over the entries is bit-identical to the
//     seed walks;
//   - the cached topological order and per-node ranks;
//   - per-node output-port fanout counts and node-kind flags.
//
// Structure is immutable: the graph records the network's
// `structural_version()` at compile time, and consumers (Design owns one)
// recompile when the topology changes.  Point changes patch in place: a
// cell resize is absorbed by `sync_node` (or the O(n) compare-only
// `sync_cells` sweep that every full analysis runs first), which refreshes
// the node's arcs and its pin caps on every driver's entry list.  Supply
// voltages and level-converter flags are never snapshotted — the hot loops
// read them live from the TimingContext spans, which are already flat.
//
// The sync methods mutate only the mapping snapshot (cells / arcs / caps)
// and are safe to call through a const reference; a TimingGraph must not
// be shared across threads that analyze concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"
#include "timing/sta.hpp"

namespace dvs {

namespace timing_detail {
class NodeRules;
}

class TimingGraph {
 public:
  /// One fanout pin of a driver: `sink` reads the driver on input `pin`.
  struct FanoutPin {
    NodeId sink = kNoNode;
    std::int32_t pin = 0;
  };

  /// Compiles `net` + `lib`.  The references must outlive the graph.
  TimingGraph(const Network& net, const Library& lib);

  const Network& network() const { return *net_; }
  const Library& library() const { return *lib_; }

  /// Network structural version this graph was compiled against.
  std::uint64_t structural_version() const { return structural_version_; }

  /// True iff this graph is a current compilation of exactly this
  /// network/library pair (same objects, no structural edits since).
  bool describes(const Network& net, const Library& lib) const {
    return net_ == &net && lib_ == &lib &&
           structural_version_ == net.structural_version();
  }

  // ---- cached orders ----------------------------------------------------
  /// Live nodes, fanins before fanouts; identical to topo_order(net).
  const std::vector<NodeId>& topo_order() const { return topo_order_; }
  /// Topological rank per node id (dead slots hold 0).
  const std::vector<int>& topo_ranks() const { return topo_rank_; }

  // ---- flat structure ---------------------------------------------------
  bool is_gate(NodeId id) const { return gate_flag_[id] != 0; }
  /// Fanin node per input pin, mirroring Node::fanins verbatim.
  std::span<const NodeId> fanins(NodeId id) const {
    return {fanin_.data() + fanin_offset_[id],
            fanin_.data() + fanin_offset_[id + 1]};
  }
  /// Pre-resolved timing arc per input pin, parallel to fanins().
  std::span<const TimingArc> arcs(NodeId id) const {
    return {arc_.data() + fanin_offset_[id],
            arc_.data() + fanin_offset_[id + 1]};
  }

  /// Fanout pin entries of a driver, grouped by sink in the canonical
  /// unique-fanout visit order with pins ascending inside each group.
  std::span<const FanoutPin> fanout_pins(NodeId id) const {
    return {entry_.data() + entry_offset_[id],
            entry_.data() + entry_offset_[id + 1]};
  }
  /// Input-pin capacitance per fanout pin entry, parallel to
  /// fanout_pins().  Accumulating these in entry order reproduces the
  /// seed load walks bit-for-bit.
  std::span<const double> fanout_pin_caps(NodeId id) const {
    return {entry_cap_.data() + entry_offset_[id],
            entry_cap_.data() + entry_offset_[id + 1]};
  }

  /// Distinct fanout nodes of a driver, in canonical visit order.
  std::span<const NodeId> unique_fanouts(NodeId id) const {
    return {uniq_.data() + uniq_offset_[id],
            uniq_.data() + uniq_offset_[id + 1]};
  }

  /// Number of primary-output ports this node drives.
  int port_fanout_count(NodeId id) const { return port_count_[id]; }

  // ---- point-change patching -------------------------------------------
  /// Refreshes everything derived from `id`'s mapped cell: its arcs and
  /// the pin caps on each of its drivers' entry lists.
  /// Call after Network::set_cell; full analyses self-heal via
  /// sync_cells().
  void sync_node(NodeId id) const;
  /// Compare-only sweep over all live nodes; patches any whose cell moved
  /// since compilation or the last sync.
  void sync_cells() const;

 private:
  void compile();
  void patch_cell(NodeId id) const;

  const Network* net_;
  const Library* lib_;
  std::uint64_t structural_version_ = 0;

  std::vector<NodeId> topo_order_;
  std::vector<int> topo_rank_;
  std::vector<char> gate_flag_;
  std::vector<int> port_count_;

  // Fanin CSR: pins of node id live at [fanin_offset_[id],
  // fanin_offset_[id+1]); arc_ is parallel, fanin_entry_ cross-links each
  // pin to the one entry representing it on its driver's fanout list.
  std::vector<std::int32_t> fanin_offset_;
  std::vector<NodeId> fanin_;
  mutable std::vector<TimingArc> arc_;
  std::vector<std::int32_t> fanin_entry_;

  // Fanout entry CSR + the distinct fanouts in visit order.
  std::vector<std::int32_t> entry_offset_;
  std::vector<FanoutPin> entry_;
  mutable std::vector<double> entry_cap_;
  std::vector<std::int32_t> uniq_offset_;
  std::vector<NodeId> uniq_;

  // Mapped-cell snapshot the arcs/caps were resolved against.
  mutable std::vector<std::int32_t> cell_;
};

/// N-lane arrival-time engine: scores N candidate (rung, cell)
/// assignments against a committed base state in one topological sweep
/// over the compiled CSR arcs.
///
/// Layout: a lane-major structure-of-arrays block — for every node at or
/// above the sparse "dirty-from" start rank (the minimum topological rank
/// any lane's overrides touch, shared across lanes) the engine keeps
/// `num_lanes` contiguous rise/fall arrival doubles, so the inner loop
/// over lanes is a branch-free contiguous run that the compiler can
/// auto-vectorize.  Nodes below the start rank are never re-walked: all
/// lanes read the base arrivals computed once per run().
///
/// Exactness: lane results are bit-identical to re-running the full
/// single-assignment STA on a design carrying the lane's overrides —
/// not approximately equal.  Every per-lane value comes from the
/// kernel's per-node rules (timing/kernel.hpp) that run_sta applies: the
/// base sweep is run_sta's own forward half, per-lane loads call the
/// load rule with the lane's pin caps and converter routing, touched
/// nodes call the arrival and LC-arrival rules with the lane's supply,
/// cell, load and inputs, LC boundary flags are re-derived with the same
/// `lc_needed` rule Design maintains, and the max-folds over pins and
/// output ports are order-insensitive.  Untouched nodes above the start
/// rank run the arrival rule lane-wide — one scalar delay per pin, then
/// a contiguous max-fold over the lanes — on the same operands, so they
/// reproduce the base doubles byte-for-byte.
///
/// The context's spans must stay alive and describe the committed state
/// for the engine's lifetime; point cell edits in the underlying network
/// are absorbed by the sync_cells() every run() performs.  A structural
/// network edit invalidates the compiled graph: run() detects the
/// `structural_version()` bump and recompiles a private fallback graph
/// (observable via recompiled()), rebuilding every lane array on it.
class MultiLaneSta {
 public:
  /// `tspec` is the required time used by worst_slack(); pass the
  /// design's constraint.  Lane overrides start empty.
  MultiLaneSta(const TimingContext& ctx, double tspec);
  ~MultiLaneSta();

  int add_lane();
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  /// Drops every lane and its overrides (buffers are kept for reuse).
  void reset_lanes();

  /// Overrides gate `id`'s supply rung in `lane`.  Requires the context
  /// to carry `node_level` and `lc_on_output` spans (Design contexts do).
  void set_level(int lane, NodeId id, SupplyId rung);
  /// Overrides gate `id`'s mapped cell in `lane` (arcs + pin caps);
  /// `cell < 0` means unmapped (default arcs / default pin caps).
  void set_cell(int lane, NodeId id, int cell);

  /// One base sweep + one lane sweep from the dirty rank.  Recompiles a
  /// private graph first if the context's graph went stale.
  void run();

  double tspec() const { return tspec_; }
  /// Worst arrival of the committed (no-override) state, from the last
  /// run().
  double base_worst_arrival() const { return base_.worst_arrival; }
  double worst_arrival(int lane) const;
  double worst_slack(int lane) const { return tspec_ - worst_arrival(lane); }
  /// Arrival at `id`'s output in `lane`, from the last run().
  RiseFall arrival(int lane, NodeId id) const;
  /// True iff the last run() had to recompile (stale context graph).
  bool recompiled() const { return recompiled_; }

 private:
  struct Override {
    NodeId node = kNoNode;
    SupplyId level = 0;
    int cell = -1;
    char has_level = 0;
    char has_cell = 0;
  };

  void build_closure(const TimingGraph& g);
  void fill_effective(const timing_detail::NodeRules& rules);
  void sweep_lanes(timing_detail::NodeRules& rules);

  TimingContext ctx_;
  double tspec_ = 0.0;
  std::unique_ptr<const TimingGraph> fallback_;  // ctx_.graph went stale
  const TimingGraph* graph_ = nullptr;  // resolved by the last run()
  bool recompiled_ = false;

  std::vector<std::vector<Override>> lanes_;
  std::vector<char> lane_has_level_;  // lane carries >=1 level override

  // ---- products of the last run() ---------------------------------------
  StaResult base_;  // forward half of the committed state's full walk
  int start_rank_ = 0;
  int ran_lanes_ = 0;
  // Lane block: node (by rank - start_rank_) major, lane minor.
  std::vector<double> lane_ar_, lane_af_, lane_lr_, lane_lf_;
  std::vector<double> lane_worst_;

  // ---- override closure + per-(touched node, lane) effective state ------
  std::vector<char> touched_;    // per node id: overridden/adjacent, any lane
  std::vector<int> touch_row_;   // node id -> row in eff arrays, or -1
  std::vector<NodeId> touch_list_;
  static constexpr int kBaseCell = -2;  // eff_cell_ sentinel: no override
  std::vector<double> eff_vdd_, eff_load_, eff_lc_load_;
  std::vector<SupplyId> eff_level_;
  std::vector<int> eff_cell_;
  std::vector<char> eff_lc_on_;  // lane LC flag (lc_needed)
  std::vector<TimingArc> scratch_arcs_;
};

}  // namespace dvs
