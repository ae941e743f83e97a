#include "benchgen/random_dag.hpp"

#include <algorithm>
#include <cmath>

#include "benchgen/structured.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "timing/sta.hpp"

namespace dvs {

namespace {

/// Cell base-name pools per fanin arity for the random-logic region.
/// Deliberately light cells: the region must stay comfortably faster than
/// the zero-slack core, which is what gives it its slack.
const std::vector<std::string>& pool(int arity) {
  static const std::vector<std::string> p1{"inv", "buf"};
  static const std::vector<std::string> p2{"nand2", "nor2", "and2", "or2",
                                           "xor2"};
  static const std::vector<std::string> p3{"nand3", "nor3", "and3", "or3",
                                           "aoi21", "oai21", "mux2",
                                           "maj3"};
  static const std::vector<std::string> p4{"nand4", "nor4", "and4", "or4",
                                           "aoi22", "oai22", "aoi211",
                                           "oai211"};
  switch (arity) {
    case 1: return p1;
    case 2: return p2;
    case 3: return p3;
    default: return p4;
  }
}

int pick_cell(const Library& lib, int arity, bool maxed, Rng& rng) {
  const auto& names = pool(arity);
  const int smallest =
      lib.smallest_of(names[rng.next_below(names.size())]);
  DVS_ASSERT(smallest >= 0);
  if (!maxed) return smallest;
  const auto variants = lib.variants_of(smallest);
  return variants.back();
}

int pick_arity(Rng& rng) {
  const double r = rng.next_double();
  if (r < 0.15) return 1;
  if (r < 0.65) return 2;
  if (r < 0.90) return 3;
  return 4;
}

struct RandomRegion {
  std::vector<NodeId> tails;  // fanout-less gates (natural PO drivers)
  std::vector<NodeId> all;    // every gate of the region
};

/// Adds `gate_budget` gates of layered random logic into `net`, `depth`
/// levels deep, drawing leaves from `pis`.
RandomRegion add_random_region(Network& net, const Library& lib,
                               std::span<const NodeId> pis,
                               int gate_budget, int depth, bool maxed,
                               Rng& rng) {
  RandomRegion region;
  std::vector<NodeId> hungry;  // gates with no fanout yet

  auto take_hungry = [&]() -> NodeId {
    if (hungry.empty()) return kNoNode;
    const std::size_t k = rng.next_below(hungry.size());
    const NodeId id = hungry[k];
    hungry[k] = hungry.back();
    hungry.pop_back();
    return id;
  };

  int built = 0;
  for (int level = 1; level <= depth && built < gate_budget; ++level) {
    const int budget = gate_budget - built;
    const int levels_left = depth - level + 1;
    const int width = std::max(
        1, std::min(budget - (levels_left - 1),
                    (budget + levels_left - 1) / levels_left));
    for (int g = 0; g < width && built < gate_budget; ++g) {
      const int arity = pick_arity(rng);
      const int cell = pick_cell(lib, arity, maxed, rng);
      std::vector<NodeId> fanins;
      for (int pin = 0; pin < arity; ++pin) {
        NodeId f = kNoNode;
        for (int attempt = 0; attempt < 4; ++attempt) {
          NodeId candidate = kNoNode;
          if (level > 1 && rng.next_bool(0.7)) candidate = take_hungry();
          if (candidate == kNoNode && level > 1 && !region.all.empty() &&
              rng.next_bool(0.4))
            candidate = region.all[rng.next_below(region.all.size())];
          if (candidate == kNoNode)
            candidate = pis[rng.next_below(pis.size())];
          if (std::find(fanins.begin(), fanins.end(), candidate) ==
              fanins.end()) {
            f = candidate;
            break;
          }
          // A rejected hungry node keeps its hungry status.
          if (std::find(region.all.begin(), region.all.end(),
                        candidate) != region.all.end() &&
              std::find(hungry.begin(), hungry.end(), candidate) ==
                  hungry.end())
            hungry.push_back(candidate);
        }
        if (f != kNoNode) fanins.push_back(f);
      }
      // Duplicates can be unavoidable on tiny PI sets; use the collected
      // distinct fanins with a cell of matching arity.
      NodeId id;
      if (static_cast<int>(fanins.size()) == arity) {
        id = net.add_gate(lib.cell(cell).function, fanins, cell);
      } else {
        DVS_ASSERT(!fanins.empty());
        const int k = std::min<int>(4, static_cast<int>(fanins.size()));
        fanins.resize(k);
        const int fallback = pick_cell(lib, k, maxed, rng);
        id = net.add_gate(lib.cell(fallback).function, fanins, fallback);
      }
      region.all.push_back(id);
      hungry.push_back(id);
      ++built;
    }
  }
  region.tails = std::move(hungry);
  return region;
}

}  // namespace

Network build_hybrid_circuit(const Library& lib, const HybridSpec& spec,
                             std::string name) {
  DVS_EXPECTS(spec.gates >= 4);
  DVS_EXPECTS(spec.pis >= 2 && spec.pos >= 1);
  DVS_EXPECTS(spec.critical_fraction >= 0.0 &&
              spec.critical_fraction <= 1.0);
  Network core_net(std::move(name));
  Rng rng(spec.seed);

  std::vector<NodeId> pis;
  for (int i = 0; i < spec.pis; ++i)
    pis.push_back(core_net.add_input("pi" + std::to_string(i)));

  // ---- zero-slack core ---------------------------------------------------
  int core_gates =
      static_cast<int>(std::lround(spec.gates * spec.critical_fraction));
  int core_chains = std::clamp(
      static_cast<int>(std::lround(spec.pos * spec.critical_fraction)), 1,
      std::max(1, spec.pos - 1));
  core_gates = std::max(core_gates, 2 * std::max(2, core_chains));
  core_gates = std::min(core_gates, spec.gates);
  core_chains = std::min(core_chains, std::max(1, core_gates / 4));
  const GridPart core =
      add_grid_part(core_net, lib, pis, core_gates, core_chains, 0,
                    spec.slack_branch_fraction, spec.maxed_sizes, rng);

  // Core delay: the constraint the finished circuit must be limited by.
  double core_delay = 0.0;
  {
    Network probe = core_net;
    for (std::size_t p = 0; p < core.po_drivers.size(); ++p)
      probe.add_output(std::string("p").append(std::to_string(p)),
                     core.po_drivers[p]);
    core_delay = run_sta(probe, lib, -1.0).worst_arrival;
  }

  // ---- slack-rich random region -------------------------------------------
  // Built at decreasing depths until its own worst path stays safely
  // below the core delay, so the core keeps defining the constraint and
  // the region keeps its slack.
  const int random_gates = spec.gates - core.gates_built;
  int depth_r = std::max(
      2, static_cast<int>(std::lround(core.depth * 0.45)));
  Network net = core_net;
  for (int attempt = 0; ; ++attempt) {
    net = core_net;  // fresh copy of the core
    Rng region_rng(spec.seed + 7777 * (attempt + 1));
    const RandomRegion region = add_random_region(
        net, lib, pis, random_gates, depth_r, spec.maxed_sizes,
        region_rng);

    // Final port assignment (it loads the region, so it must be part of
    // the fit check below): core tails, region tails, then internal taps
    // until the port budget is met.
    int port = 0;
    for (NodeId driver : core.po_drivers)
      net.add_output("po" + std::to_string(port++), driver);
    for (NodeId tail : region.tails)
      net.add_output("po" + std::to_string(port++), tail);
    std::size_t tap = 0;
    while (port < spec.pos && tap < region.all.size())
      net.add_output("po" + std::to_string(port++), region.all[tap++]);

    if (region.all.empty()) break;
    const StaResult sta = run_sta(net, lib, -1.0);
    double worst_random = 0.0;
    for (NodeId id : region.all)
      worst_random = std::max(worst_random, sta.arrival[id].max());
    if (worst_random <= 0.8 * core_delay || depth_r <= 1) break;
    --depth_r;
  }

  net.check();
  return net;
}

}  // namespace dvs
