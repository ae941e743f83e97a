// Structural statistics of a network, for reports and benchmark tables,
// plus the content-addressing hashes behind the dvsd result cache.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/network.hpp"

namespace dvs {

struct NetworkStats {
  int num_inputs = 0;
  int num_outputs = 0;
  int num_gates = 0;
  int num_constants = 0;
  int depth = 0;             // logic levels, inputs at level 0
  double avg_fanin = 0.0;    // over gates
  double avg_fanout = 0.0;   // over nodes with fanout
  int max_fanout = 0;
};

NetworkStats network_stats(const Network& net);

/// One-line human-readable summary.
std::string describe(const NetworkStats& stats);

/// Structural fingerprint of the network: a 64-bit hash over (input
/// positions, gate truth tables, fanin wiring, output port order) that is
/// invariant to node ids, node/port names, dead slots, and gate pin
/// permutations (the table is re-permuted into a canonical pin order) —
/// so a reader that permutes ids, reorders SOP literals or sanitizes names
/// does not move it.  A Verilog round trip keeps it.  A BLIF round trip of
/// a mapped circuit does not: the text drives each output port through a
/// buffer of its own, so the network read back has one more gate per port
/// (x2: 39 -> 50 gates, 228e677f0a472648 -> 469531b57f9d0cee).
/// Deliberately *excludes* the cell binding: topology is
/// what the netlist computes, not how it is sized (see
/// mapping_fingerprint for the binding).  Dangling logic still counts:
/// it contributes power, so two netlists differing only in unreferenced
/// gates must not collide.
std::uint64_t topology_hash(const Network& net);

/// 64-bit hash of the cell binding on top of the topology: a second
/// bottom-up pass mixing each gate's cell into its cone hash and
/// propagating through fanins and the ordered outputs, so even swapping
/// the cells of two structurally identical gates changes the value
/// (unless the two mapped designs are genuinely isomorphic).
/// 0 for a fully unmapped network.  A BLIF round trip drops the binding
/// (BLIF has no cells), so the pair (topology_hash, mapping_fingerprint)
/// distinguishes "same structure, will be re-mapped" from "same structure,
/// sized exactly like this" — exactly what a result cache needs.
std::uint64_t mapping_fingerprint(const Network& net);

}  // namespace dvs
