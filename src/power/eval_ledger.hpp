// The evaluation ledger: a design's power, area and low / level-converter
// / resized gate counts, kept current across point changes (a gate's
// rung or cell) beside an IncrementalSta.
//
// The power model is a sum of per-node terms, and a node's terms read
// only its own rung, activity, cell and load split.  A point change at
// a gate moves the load split of that gate and of its fanins and nothing
// else — the nodes whose loads the timer recomputes — so an update
// recomputes exactly those nodes' terms with the per-node rule
// compute_power calls (node_power).  Totals are not running deltas: each
// is an ordered sum over the ledger's per-node arrays, in the order
// compute_power and Design::total_area add, so they equal the full
// computations bit for bit (DESIGN.md, "The evaluation ledger").  The
// gate counts are integers, kept as stored per-node flags plus counters;
// a gate carries a converter wherever its load split routes a pin
// through one, which is where Design::needs_lc, asking the same pin
// rule, says it needs one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "power/power_model.hpp"

namespace dvs {

namespace timing_detail {
class NodeRules;
}

class EvalLedger {
 public:
  /// Computes every node's terms.  The context's spans, node_level and
  /// original_cells included, must outlive the ledger, and its network
  /// must not change structurally while the ledger lives (a structural
  /// edit resizes the spans' vectors: drop the ledger with the timer).
  /// The load rule runs on `ctx.graph` when it is current, else on a
  /// private compilation, bound once as IncrementalSta binds its rules.
  explicit EvalLedger(const PowerContext& ctx);
  ~EvalLedger();

  /// The node's rung or cell changed (after the fact):
  /// recomputes the terms and flags of `id` and of each of its fanins.
  /// Allocates nothing.
  void on_node_changed(NodeId id);

  /// Recomputes every node's terms in place (the arrays keep their
  /// storage).
  void rebuild();

  struct Totals {
    PowerBreakdown power;  // `node_power` stays empty
    double area = 0.0;     // um^2
  };
  /// One pass over the arrays: each power category summed in node-id
  /// order as compute_power adds it, and the area gate by gate in id
  /// order, its cell and then its converter, as Design::total_area adds
  /// it.  Every field (and power.total()) equals the full computation
  /// bit for bit.
  Totals totals() const;
  int low() const { return low_; }
  int level_converters() const { return level_converters_; }
  int resized() const { return resized_; }

  /// Node terms computed since construction, the initial build included
  /// (an update computes 1 + |fanins|).  A work count for tests.
  std::int64_t terms_computed() const { return terms_computed_; }
  /// Heap bytes of the per-node arrays.
  std::size_t bytes() const;

 private:
  enum Flag : std::uint8_t { kLow = 1, kLevelConverter = 2, kResized = 4 };

  /// Recomputes one node's terms and flags; the counters drop the
  /// node's stored flags before adding the new ones, since the design
  /// already holds the new state when a notification arrives.
  void compute(NodeId id);

  PowerContext ctx_;
  const TimingGraph* graph_ = nullptr;
  std::unique_ptr<const TimingGraph> own_graph_;  // ctx.graph was stale
  std::unique_ptr<timing_detail::NodeRules> rules_;
  std::vector<NodePower> power_;     // per node id
  std::vector<double> cell_area_;    // per node id, 0 without a cell
  std::vector<std::uint8_t> flags_;  // per node id: Flag bits
  double converter_area_ = 0.0;      // 0 without a converter cell
  int low_ = 0;
  int level_converters_ = 0;
  int resized_ = 0;
  std::int64_t terms_computed_ = 0;
};

}  // namespace dvs
