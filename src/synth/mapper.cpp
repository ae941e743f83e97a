#include "synth/mapper.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

#include "netlist/elaborate.hpp"
#include "netlist/topo.hpp"
#include "support/contracts.hpp"
#include "synth/decompose.hpp"
#include "synth/sweep.hpp"
#include "timing/sta.hpp"

namespace dvs {

namespace {

/// No pattern has more pins than this (build_patterns checks it), so a
/// match binds its leaves in a fixed array.
constexpr int kMaxPatternPins = 4;

/// Small builder for hand-written pattern trees.
class PatternBuilder {
 public:
  explicit PatternBuilder(std::string cell_base, int num_vars) {
    pattern_.cell_base = std::move(cell_base);
    pattern_.num_vars = num_vars;
  }
  int leaf(int var) {
    pattern_.nodes.push_back({PatternNode::Kind::kLeaf, -1, -1, var});
    return static_cast<int>(pattern_.nodes.size()) - 1;
  }
  int inv(int child) {
    pattern_.nodes.push_back({PatternNode::Kind::kInv, child, -1, -1});
    return static_cast<int>(pattern_.nodes.size()) - 1;
  }
  int nand(int a, int b) {
    pattern_.nodes.push_back({PatternNode::Kind::kNand, a, b, -1});
    return static_cast<int>(pattern_.nodes.size()) - 1;
  }
  Pattern finish(int root) {
    pattern_.root = root;
    return std::move(pattern_);
  }

 private:
  Pattern pattern_;
};

std::vector<Pattern> build_patterns() {
  std::vector<Pattern> out;
  auto add = [&](const char* base, int vars, auto&& body) {
    DVS_ASSERT(vars <= kMaxPatternPins);
    PatternBuilder b(base, vars);
    out.push_back(b.finish(body(b)));
  };

  add("inv", 1, [](PatternBuilder& b) { return b.inv(b.leaf(0)); });
  add("buf", 1,
      [](PatternBuilder& b) { return b.inv(b.inv(b.leaf(0))); });
  add("nand2", 2,
      [](PatternBuilder& b) { return b.nand(b.leaf(0), b.leaf(1)); });
  add("and2", 2, [](PatternBuilder& b) {
    return b.inv(b.nand(b.leaf(0), b.leaf(1)));
  });
  add("or2", 2, [](PatternBuilder& b) {
    return b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)));
  });
  add("nor2", 2, [](PatternBuilder& b) {
    return b.inv(b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1))));
  });
  add("nand3", 3, [](PatternBuilder& b) {
    return b.nand(b.inv(b.nand(b.leaf(0), b.leaf(1))), b.leaf(2));
  });
  add("and3", 3, [](PatternBuilder& b) {
    return b.inv(b.nand(b.inv(b.nand(b.leaf(0), b.leaf(1))), b.leaf(2)));
  });
  add("or3", 3, [](PatternBuilder& b) {
    return b.nand(b.inv(b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)))),
                  b.inv(b.leaf(2)));
  });
  add("nor3", 3, [](PatternBuilder& b) {
    return b.inv(
        b.nand(b.inv(b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)))),
               b.inv(b.leaf(2))));
  });
  add("nand4", 4, [](PatternBuilder& b) {
    return b.nand(b.inv(b.nand(b.leaf(0), b.leaf(1))),
                  b.inv(b.nand(b.leaf(2), b.leaf(3))));
  });
  add("and4", 4, [](PatternBuilder& b) {
    return b.inv(b.nand(b.inv(b.nand(b.leaf(0), b.leaf(1))),
                        b.inv(b.nand(b.leaf(2), b.leaf(3)))));
  });
  add("or4", 4, [](PatternBuilder& b) {
    return b.nand(b.inv(b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)))),
                  b.inv(b.nand(b.inv(b.leaf(2)), b.inv(b.leaf(3)))));
  });
  add("nor4", 4, [](PatternBuilder& b) {
    return b.inv(
        b.nand(b.inv(b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)))),
               b.inv(b.nand(b.inv(b.leaf(2)), b.inv(b.leaf(3))))));
  });
  add("aoi21", 3, [](PatternBuilder& b) {
    return b.inv(b.nand(b.nand(b.leaf(0), b.leaf(1)), b.inv(b.leaf(2))));
  });
  add("oai21", 3, [](PatternBuilder& b) {
    return b.nand(b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1))), b.leaf(2));
  });
  add("aoi22", 4, [](PatternBuilder& b) {
    return b.inv(b.nand(b.nand(b.leaf(0), b.leaf(1)),
                        b.nand(b.leaf(2), b.leaf(3))));
  });
  // !((a|b)(c|d)) == NAND(or(a,b), or(c,d)).
  add("oai22", 4, [](PatternBuilder& b) {
    const int or01 = b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)));
    const int or23 = b.nand(b.inv(b.leaf(2)), b.inv(b.leaf(3)));
    return b.nand(or01, or23);
  });
  // !(ab | c | d) == INV(NAND(INV(ab|c), INV(d))) with
  // ab|c == NAND(NAND(a,b), INV(c)).
  add("aoi211", 4, [](PatternBuilder& b) {
    const int ab_or_c =
        b.nand(b.nand(b.leaf(0), b.leaf(1)), b.inv(b.leaf(2)));
    return b.inv(b.nand(b.inv(ab_or_c), b.inv(b.leaf(3))));
  });
  add("oai211", 4, [](PatternBuilder& b) {
    // !((a|b) c d) = NAND(AND(or(a,b), c), d)
    const int or01 = b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)));
    return b.nand(b.inv(b.nand(or01, b.leaf(2))), b.leaf(3));
  });
  add("xor2", 2, [](PatternBuilder& b) {
    return b.nand(b.nand(b.leaf(0), b.inv(b.leaf(1))),
                  b.nand(b.inv(b.leaf(0)), b.leaf(1)));
  });
  add("xnor2", 2, [](PatternBuilder& b) {
    return b.inv(b.nand(b.nand(b.leaf(0), b.inv(b.leaf(1))),
                        b.nand(b.inv(b.leaf(0)), b.leaf(1))));
  });
  add("mux2", 3, [](PatternBuilder& b) {
    // pins (a, b, s): out = s ? b : a
    return b.nand(b.nand(b.leaf(0), b.inv(b.leaf(2))),
                  b.nand(b.leaf(1), b.leaf(2)));
  });
  add("maj3", 3, [](PatternBuilder& b) {
    // ab + c(a+b)
    const int or01 = b.nand(b.inv(b.leaf(0)), b.inv(b.leaf(1)));
    return b.nand(b.nand(b.leaf(0), b.leaf(1)),
                  b.nand(b.leaf(2), or01));
  });
  return out;
}

bool eval_pattern_node(const Pattern& p, int index,
                       std::uint32_t assignment) {
  const PatternNode& n = p.nodes[index];
  switch (n.kind) {
    case PatternNode::Kind::kLeaf:
      return (assignment >> n.var) & 1u;
    case PatternNode::Kind::kInv:
      return !eval_pattern_node(p, n.child0, assignment);
    case PatternNode::Kind::kNand:
    default:
      return !(eval_pattern_node(p, n.child0, assignment) &&
               eval_pattern_node(p, n.child1, assignment));
  }
}

// ---- structural matching ------------------------------------------------

using Leaves = std::array<NodeId, kMaxPatternPins>;

/// A pattern bound to the library cell one objective uses for it, with
/// the cell's area and each pin's delay at the top rail and the nominal
/// load: fixed for a whole cover, so computed once per cover.
struct Candidate {
  const Pattern* pattern = nullptr;
  int cell = -1;
  double area = 0.0;
  std::array<double, kMaxPatternPins> pin_delay{};
};

struct Match {
  const Candidate* candidate = nullptr;
  Leaves leaves{};  // subject node bound to each pin

  /// The bound leaves in pin order; none for a constant.
  std::span<const NodeId> pins() const {
    return {leaves.data(),
            candidate ? static_cast<std::size_t>(candidate->pattern->num_vars)
                      : 0};
  }
};

/// Binds pattern node `pindex`, matched at subject node `s`, extending
/// `bind` (the subject node bound to each pin); false when it does not
/// match there.
bool try_match(const Network& net, const Pattern& p, int pindex, NodeId s,
               bool is_root, Leaves& bind) {
  const PatternNode& pn = p.nodes[pindex];
  if (pn.kind == PatternNode::Kind::kLeaf) {
    if (bind[pn.var] == kNoNode) {
      bind[pn.var] = s;
      return true;
    }
    return bind[pn.var] == s;
  }
  const Node& node = net.node(s);
  if (!node.is_gate()) return false;
  // Interior subject nodes consumed by the pattern must be
  // single-fanout (classic tree-covering rule).
  if (!is_root && node.fanouts.size() != 1) return false;
  if (pn.kind == PatternNode::Kind::kInv) {
    if (!(node.function == tt_inv())) return false;
    return try_match(net, p, pn.child0, node.fanins[0], false, bind);
  }
  if (!(node.function == tt_nand(2))) return false;
  // NAND is commutative: try both child orders with backtracking.
  const Leaves saved = bind;
  if (try_match(net, p, pn.child0, node.fanins[0], false, bind) &&
      try_match(net, p, pn.child1, node.fanins[1], false, bind))
    return true;
  bind = saved;
  if (try_match(net, p, pn.child0, node.fanins[1], false, bind) &&
      try_match(net, p, pn.child1, node.fanins[0], false, bind))
    return true;
  bind = saved;
  return false;
}

// ---- covering -------------------------------------------------------------

class Cover {
 public:
  Cover(const Network& subject, const Library& lib, MapObjective objective)
      : subject_(subject), lib_(lib), objective_(objective) {
    for (const Pattern& p : mapper_patterns()) {
      const int smallest = lib_.smallest_of(p.cell_base);
      if (smallest < 0) continue;
      Candidate c{&p, smallest};
      if (objective_ == MapObjective::kDelay) {
        const auto variants = lib_.variants_of(smallest);
        if (variants.size() > 1) c.cell = variants[1];
      }
      const Cell& cell = lib_.cell(c.cell);
      c.area = cell.area;
      for (int var = 0; var < p.num_vars; ++var)
        c.pin_delay[var] =
            arc_delay(lib_, cell, var, lib_.vdd_high(), kNominalLoad).max();
      candidates_.push_back(c);
    }
  }

  MapResult run() {
    best_cost_.assign(subject_.size(),
                      std::numeric_limits<double>::infinity());
    best_match_.assign(subject_.size(), Match{});

    Leaves bind;
    for (NodeId id : topo_order(subject_)) {
      const Node& n = subject_.node(id);
      if (!n.is_gate()) {
        best_cost_[id] = 0.0;
        continue;
      }
      Match& best = best_match_[id];
      for (const Candidate& c : candidates_) {
        bind.fill(kNoNode);
        if (!try_match(subject_, *c.pattern, c.pattern->root, id,
                       /*is_root=*/true, bind))
          continue;
        double cost;
        if (objective_ == MapObjective::kArea) {
          cost = c.area;
          for (int var = 0; var < c.pattern->num_vars; ++var)
            cost += best_cost_[bind[var]];
        } else {
          cost = 0.0;
          for (int var = 0; var < c.pattern->num_vars; ++var)
            cost = std::max(cost, best_cost_[bind[var]] + c.pin_delay[var]);
        }
        // The first match stands even at infinite cost: the area sum
        // counts a cone once per reader, so on reconvergent logic it can
        // overflow.  Later matches must be strictly cheaper, which leaves
        // every finite-cost cover as it was.
        if (best.candidate == nullptr || cost < best_cost_[id]) {
          best_cost_[id] = cost;
          best = Match{&c, bind};
        }
      }
      DVS_ASSERT(best.candidate != nullptr);
    }

    MapResult result{Network(subject_.name()), 0.0, 0.0};
    emitted_.assign(subject_.size(), kNoNode);
    for (NodeId id : subject_.inputs())
      emitted_[id] = result.mapped.add_input(subject_.node(id).name);
    for (const OutputPort& port : subject_.outputs()) {
      result.mapped.add_output(port.name,
                               emit(port.driver, result.mapped));
      result.estimated_delay =
          std::max(result.estimated_delay, best_cost_[port.driver]);
    }
    result.mapped.sweep_dangling();
    result.mapped.check();
    result.area = 0.0;
    result.mapped.for_each_gate([&](const Node& g) {
      if (g.cell >= 0) result.area += lib_.cell(g.cell).area;
    });
    return result;
  }

 private:
  static constexpr double kNominalLoad = 12.0;  // fF, load estimate

  /// Emits the cover of `root`: each chosen match's cell after the cells
  /// of its leaves.
  NodeId emit(NodeId root, Network& mapped) {
    return elaborate(
        root, emitted_,
        [&](NodeId id) { return best_match_[id].pins(); },
        [](NodeId leaf, NodeId /*user*/) { return leaf; },
        [&](NodeId id, std::vector<NodeId> fanins) {
          const Node& n = subject_.node(id);
          if (n.is_constant())
            return mapped.add_constant(n.constant_value, n.name);
          const Match& m = best_match_[id];
          DVS_ASSERT(m.candidate != nullptr);
          const int cell = m.candidate->cell;
          return mapped.add_gate(lib_.cell(cell).function, std::move(fanins),
                                 cell, n.name);
        },
        [](NodeId) { DVS_ASSERT(!"a subject network is acyclic"); });
  }

  const Network& subject_;
  const Library& lib_;
  MapObjective objective_;
  std::vector<Candidate> candidates_;  // pattern order: ties keep the first
  std::vector<double> best_cost_;
  std::vector<Match> best_match_;
  std::vector<NodeId> emitted_;  // per subject node, for elaborate()
};

/// The NAND2/INV graph both covers read: a swept copy of `net`,
/// decomposed and swept again.
Network subject_graph(const Network& net) {
  Network prepared = net;  // copy: sweeping mutates
  sweep_network(prepared);
  Network subject = decompose_to_nand2(prepared);
  sweep_network(subject);
  return subject;
}

}  // namespace

const std::vector<Pattern>& mapper_patterns() {
  static const std::vector<Pattern> kPatterns = build_patterns();
  return kPatterns;
}

bool pattern_eval(const Pattern& pattern, std::uint32_t assignment) {
  return eval_pattern_node(pattern, pattern.root, assignment);
}

MapResult map_network(const Network& net, const Library& lib,
                      MapObjective objective) {
  const Network subject = subject_graph(net);
  return Cover(subject, lib, objective).run();
}

PaperSetupResult map_paper_setup(const Network& net, const Library& lib,
                                 double relax) {
  const Network subject = subject_graph(net);
  MapResult delay_map = Cover(subject, lib, MapObjective::kDelay).run();
  const StaResult delay_sta = run_sta(delay_map.mapped, lib, -1.0);
  PaperSetupResult result;
  result.tmin = delay_sta.worst_arrival;
  result.tspec = result.tmin * (1.0 + relax);

  MapResult area_map = Cover(subject, lib, MapObjective::kArea).run();
  const StaResult area_sta = run_sta(area_map.mapped, lib, -1.0);
  if (area_sta.worst_arrival <= result.tspec)
    result.mapped = std::move(area_map.mapped);
  else
    result.mapped = std::move(delay_map.mapped);
  return result;
}

}  // namespace dvs
