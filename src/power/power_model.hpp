// Power evaluation per the paper's equation (1):
//   P_switch = a01 * f_clk * C_load * Vdd^2
// extended with internal switching capacitance, level-converter power
// (their load and internal nodes swing at Vdd_high), and cell leakage.
// Units per support/units.hpp: MHz * fF * V^2 * 1e-3 = uW.
#pragma once

#include <span>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"
#include "power/activity.hpp"
#include "timing/sta.hpp"

namespace dvs {

struct PowerContext {
  const Network* net = nullptr;
  const Library* lib = nullptr;
  /// Supply-ladder rung per node id: a node switches at its rung's
  /// voltage, and the timing kernel's load rule routes its converter.
  std::span<const SupplyId> node_level;
  std::span<const double> alpha01;  // per node, from activity estimation
  double freq_mhz = 20.0;           // the paper's 20 MHz random simulation
  /// Optional compiled graph for the load rule's flat walk.
  const TimingGraph* graph = nullptr;
  /// Read only by EvalLedger's resized count (compute_power ignores it):
  /// the cell each gate started with (-1 = none); a gate on another cell
  /// is resized.
  std::span<const int> original_cells;

  /// The timing kernel's view of the same network, rungs and graph.
  TimingContext timing() const {
    TimingContext ctx;
    ctx.net = net;
    ctx.lib = lib;
    ctx.node_level = node_level;
    ctx.graph = graph;
    return ctx;
  }
};

/// One node's share of each power category (uW).
struct NodePower {
  double switching = 0.0;
  double internal = 0.0;
  double converter = 0.0;
  double leakage = 0.0;
};

struct PowerBreakdown {
  double switching = 0.0;  // uW, net (external) switching power
  double internal = 0.0;   // uW, internal-node switching
  double converter = 0.0;  // uW, level-converter switching + internal
  double leakage = 0.0;    // uW
  /// Total power attributed to each node (its own output net + internal +
  /// its LC, if any).  Indexed by NodeId.
  std::vector<double> node_power;

  double total() const {
    return switching + internal + converter + leakage;
  }
};

/// The per-node power rule, which compute_power and EvalLedger both
/// call: the node's output net switching at its rung's voltage into
/// `direct_load`, a mapped gate's internal node and leakage, and — when
/// `lc_pins` fanout pins run through its level converter — the
/// converter's switching at Vdd_high into `lc_load` plus its leakage.
/// The loads are the node's split under the timing kernel's load rule.
/// Every term is non-negative; inputs and constants get all zeros.
NodePower node_power(const PowerContext& ctx, const Node& node,
                     double direct_load, double lc_load, int lc_pins);

/// node_power's converter term, which Dscale's lowering model prices
/// what-if converters with: a converter switching with activity `a` at
/// `freq_mhz` into `lc_load`, its output stage and internal node at
/// Vdd_high, plus its leakage.  `lib` must have a converter cell.
double converter_power(const Library& lib, double a, double freq_mhz,
                       double lc_load);

PowerBreakdown compute_power(const PowerContext& ctx);

/// Uniform single-supply convenience (all nodes on the top rung, no LCs).
PowerBreakdown compute_power(const Network& net, const Library& lib,
                             const Activity& activity,
                             double freq_mhz = 20.0);

}  // namespace dvs
