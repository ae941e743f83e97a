#include "benchgen/structured.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace dvs {

namespace {

/// Odd levels are "injection" levels: the second pin reads a fresh primary
/// input through an XNOR, which re-randomizes every column (p stays 1/2)
/// and stops the cross-column correlation collapse that would otherwise
/// freeze switching activity deep in the mesh.  Even levels cross-couple
/// neighbouring columns through NAND/NOR.
bool is_injection_level(int level) { return level % 2 == 1; }

/// Cell used at mesh level `l` (1-based).  One cell per level keeps every
/// full-depth path identical, which is what pins the slack to zero.
int level_cell(const Library& lib, int level, bool maxed) {
  const char* base = "xnor2";
  if (!is_injection_level(level))
    base = ((level / 2) % 2 == 0) ? "nand2" : "nor2";
  const std::string name = std::string(base) + (maxed ? "_d2" : "_d0");
  const int cell = lib.find(name);
  DVS_ASSERT(cell >= 0);
  return cell;
}

}  // namespace

// The grid is a cross-coupled mesh of `w` columns by `depth` levels: every
// gate takes its first pin from its own column one level up and its second
// ("cross") pin from a rotated neighbour column, so all level-l outputs
// arrive simultaneously and every gate sits on a full-depth path (zero
// slack when the constraint equals the mesh delay).  Leftover gate budget
// becomes side chains that steal a cross pin: exact-length chains stay
// zero-slack (critical filler), short ones carry real slack (the Dscale
// fodder controlled by branch_fraction).
GridPart add_grid_part(Network& net, const Library& lib,
                       std::span<const NodeId> pis, int gates,
                       int num_chains, int depth, double branch_fraction,
                       bool maxed_sizes, Rng& rng) {
  DVS_EXPECTS(!pis.empty());
  DVS_EXPECTS(num_chains >= 1);
  const int w = std::min(std::max(2, num_chains), std::max(2, gates / 2));
  DVS_EXPECTS(gates >= 2 * w);
  auto pi = [&]() { return pis[rng.next_below(pis.size())]; };

  if (depth <= 0) {
    depth = static_cast<int>(std::lround(
        gates * (1.0 - branch_fraction) / w));
    depth = std::clamp(depth, 4, 30);
  }
  depth = std::max(2, std::min(depth, gates / w));

  GridPart part;
  part.depth = depth;

  // ---- mesh core --------------------------------------------------------
  std::vector<NodeId> previous, current;
  // Cross pins that a side chain may steal: (gate, its level).
  std::vector<std::pair<NodeId, int>> slots;
  for (int level = 1; level <= depth; ++level) {
    const int cell = level_cell(lib, level, maxed_sizes);
    const int rotate = w > 1 ? rng.next_int(1, w - 1) : 0;
    current.clear();
    for (int col = 0; col < w; ++col) {
      std::vector<NodeId> fanins;
      if (level == 1)
        fanins = {pi(), pi()};
      else if (is_injection_level(level))
        fanins = {previous[col], pi()};
      else
        fanins = {previous[col], previous[(col + rotate) % w]};
      const NodeId id =
          net.add_gate(lib.cell(cell).function, fanins, cell);
      current.push_back(id);
      if (level >= 2) slots.emplace_back(id, level);
      ++part.gates_built;
    }
    previous = current;
  }
  part.po_drivers = previous;

  // ---- side chains ------------------------------------------------------
  auto build_chain = [&](int length) {
    NodeId prev = kNoNode;
    for (int level = 1; level <= length; ++level) {
      const int cell = level_cell(lib, level, maxed_sizes);
      std::vector<NodeId> fanins =
          level == 1 ? std::vector<NodeId>{pi(), pi()}
                     : std::vector<NodeId>{prev, pi()};
      prev = net.add_gate(lib.cell(cell).function, fanins, cell);
      if (level >= 2) slots.emplace_back(prev, level);
      ++part.gates_built;
    }
    return prev;
  };
  auto take_slot = [&](int lo, int hi) {
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (slots[i].second >= lo && slots[i].second <= hi)
        eligible.push_back(i);
    if (eligible.empty()) return std::pair<NodeId, int>{kNoNode, 0};
    const std::size_t k = eligible[rng.next_below(eligible.size())];
    const auto slot = slots[k];
    slots[k] = slots.back();
    slots.pop_back();
    return slot;
  };
  auto attach = [&](NodeId host, NodeId tail) {
    net.replace_fanin(host, net.node(host).fanins[1], tail);
  };

  int remaining = gates - part.gates_built;
  int slack_budget = std::min(
      remaining, static_cast<int>(std::lround(gates * branch_fraction)));
  int critical_budget = remaining - slack_budget;

  // Exact-length chains into a level-(l) pin arrive with the mesh: near
  // zero slack.  Side-chain gates carry lighter loads than mesh gates, so
  // the residual slack grows with the attachment level; capping the level
  // keeps it below what a lowering (plus its converter) would need.
  while (critical_budget > 0) {
    const auto [host, l] = take_slot(2, std::min(6, critical_budget + 1));
    if (host == kNoNode) break;
    attach(host, build_chain(l - 1));
    critical_budget -= (l - 1);
  }
  slack_budget += critical_budget;  // whatever could not be placed

  // Short chains arrive early: their gates carry real slack, but the host
  // pin stays non-critical, so the mesh timing is untouched.
  while (slack_budget > 0) {
    const auto [host, l] = take_slot(3, depth);
    if (host == kNoNode) break;
    const int b =
        std::min(slack_budget, std::max(1, l - 2 - rng.next_int(0, 1)));
    attach(host, build_chain(b));
    slack_budget -= b;
  }
  while (slack_budget > 0) {  // degenerate shallow grids
    const auto [host, l] = take_slot(2, depth);
    if (host == kNoNode) break;
    (void)l;
    attach(host, build_chain(1));
    --slack_budget;
  }
  return part;
}

Network build_balanced_grid(const Library& lib, const GridSpec& spec,
                            std::string name) {
  DVS_EXPECTS(spec.gates >= 2 * spec.pos);
  DVS_EXPECTS(spec.pis >= 2 && spec.pos >= 1);
  Network net(std::move(name));
  Rng rng(spec.seed);

  std::vector<NodeId> pis;
  for (int i = 0; i < spec.pis; ++i)
    pis.push_back(net.add_input("pi" + std::to_string(i)));

  const GridPart part =
      add_grid_part(net, lib, pis, spec.gates, spec.pos, spec.depth,
                    spec.slack_branch_fraction, spec.maxed_sizes, rng);
  // The mesh needs at least two columns; every column tail must drive a
  // port (a dangling tail would hand its whole column to the sweeper), so
  // single-output specs get one extra port.
  for (std::size_t p = 0; p < part.po_drivers.size(); ++p)
    net.add_output("po" + std::to_string(p), part.po_drivers[p]);
  DVS_ENSURES(net.num_gates() <= spec.gates);
  net.check();
  return net;
}

Network build_ripple_adder(const Library& lib, int bits, std::string name,
                           bool maxed_sizes) {
  DVS_EXPECTS(bits >= 1);
  Network net(std::move(name));
  const int xor_cell = lib.find(maxed_sizes ? "xor2_d1" : "xor2_d0");
  const int maj_cell = lib.find(maxed_sizes ? "maj3_d1" : "maj3_d0");
  DVS_ASSERT(xor_cell >= 0 && maj_cell >= 0);

  std::vector<NodeId> a, b;
  for (int i = 0; i < bits; ++i)
    a.push_back(net.add_input(std::string("a").append(std::to_string(i))));
  for (int i = 0; i < bits; ++i)
    b.push_back(net.add_input(std::string("b").append(std::to_string(i))));
  NodeId carry = net.add_input("cin");

  for (int i = 0; i < bits; ++i) {
    const NodeId half = net.add_gate(lib.cell(xor_cell).function,
                                     {a[i], b[i]}, xor_cell);
    const NodeId sum = net.add_gate(lib.cell(xor_cell).function,
                                    {half, carry}, xor_cell);
    net.add_output(std::string("s").append(std::to_string(i)), sum);
    carry = net.add_gate(lib.cell(maj_cell).function, {a[i], b[i], carry},
                         maj_cell);
  }
  net.add_output("cout", carry);
  net.check();
  return net;
}

}  // namespace dvs
