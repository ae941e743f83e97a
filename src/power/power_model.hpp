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

namespace dvs {

class TimingGraph;

struct PowerContext {
  const Network* net = nullptr;
  const Library* lib = nullptr;
  std::span<const double> node_vdd;
  std::span<const char> lc_on_output;
  std::span<const double> alpha01;  // per node, from activity estimation
  double freq_mhz = 20.0;           // the paper's 20 MHz random simulation
  /// Optional compiled graph for the load computation's flat fast path.
  const TimingGraph* graph = nullptr;
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

PowerBreakdown compute_power(const PowerContext& ctx);

/// Uniform single-supply convenience (all nodes at vdd_high, no LCs).
PowerBreakdown compute_power(const Network& net, const Library& lib,
                             const Activity& activity,
                             double freq_mhz = 20.0);

}  // namespace dvs
