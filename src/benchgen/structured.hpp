// Structured circuit families.  `build_balanced_grid` produces circuits in
// which every gate lies on a full-depth (zero-slack) path except for an
// adjustable fraction of slack-bearing side branches — the structural
// signature of the paper's CVS=0 circuits (C1355, C432, C499, f51m, mux,
// z4ml, i2).  The ripple-carry adder builder is used by my_adder, the
// examples and the tests.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace dvs {

struct GridSpec {
  int gates = 100;
  int pis = 16;
  int pos = 4;
  /// Logic depth; 0 = derived from the gate budget.
  int depth = 0;
  /// Fraction of gates placed on slack-bearing branches (Dscale fodder).
  double slack_branch_fraction = 0.12;
  /// Map every gate onto its largest drive variant, leaving Gscale no
  /// room to create slack (the i2 signature).
  bool maxed_sizes = false;
  std::uint64_t seed = 1;
};

/// Balanced grid: `pos` full-depth chains (one per output) with
/// exact-length merge chains keeping every spine gate at zero slack, plus
/// short branches with real slack.  Gate count is hit exactly.
Network build_balanced_grid(const Library& lib, const GridSpec& spec,
                            std::string name);

class Rng;

/// Lower-level entry used by the hybrid generator: adds a balanced grid
/// into an existing network, drawing leaf inputs from `pis`.  Returns the
/// chain tails (one per requested output chain) and the depth used.
struct GridPart {
  std::vector<NodeId> po_drivers;
  int gates_built = 0;
  int depth = 0;
};
GridPart add_grid_part(Network& net, const Library& lib,
                       std::span<const NodeId> pis, int gates,
                       int num_chains, int depth, double branch_fraction,
                       bool maxed_sizes, Rng& rng);

/// Ripple-carry adder: xor2/xor2/maj3 per bit.  Sum trees carry slack,
/// the majority carry chain is critical — the my_adder signature.
Network build_ripple_adder(const Library& lib, int bits, std::string name,
                           bool maxed_sizes = false);

}  // namespace dvs
