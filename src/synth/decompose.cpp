#include "synth/decompose.hpp"

#include <algorithm>
#include <unordered_map>

#include "netlist/topo.hpp"
#include "support/contracts.hpp"

namespace dvs {

namespace {

bool cube_matches(const Cube& cube, std::uint32_t pattern) {
  for (std::size_t i = 0; i < cube.size(); ++i) {
    if (cube[i] == 2) continue;
    if (cube[i] != ((pattern >> i) & 1u)) return false;
  }
  return true;
}

/// Two cubes merge when they differ in exactly one literal position.
bool try_merge(const Cube& a, const Cube& b, Cube* merged) {
  int diff = -1;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    if (a[i] == 2 || b[i] == 2) return false;  // different support
    if (diff >= 0) return false;
    diff = static_cast<int>(i);
  }
  if (diff < 0) return false;  // identical
  *merged = a;
  (*merged)[diff] = 2;
  return true;
}

}  // namespace

std::vector<Cube> extract_cubes(const TruthTable& tt) {
  std::vector<Cube> cover;
  const int k = tt.num_vars;
  for (std::uint32_t p = 0; p < (1u << k); ++p) {
    if (!tt.eval(p)) continue;
    Cube cube(k);
    for (int i = 0; i < k; ++i) cube[i] = (p >> i) & 1u;
    cover.push_back(std::move(cube));
  }
  // Iterated pairwise merging; not minimum, but compact enough for the
  // <=6-input functions the netlist carries.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Cube> next;
    std::vector<char> used(cover.size(), 0);
    for (std::size_t i = 0; i < cover.size(); ++i) {
      for (std::size_t j = i + 1; j < cover.size(); ++j) {
        Cube merged;
        if (try_merge(cover[i], cover[j], &merged)) {
          if (std::find(next.begin(), next.end(), merged) == next.end())
            next.push_back(std::move(merged));
          used[i] = used[j] = 1;
          changed = true;
        }
      }
    }
    for (std::size_t i = 0; i < cover.size(); ++i)
      if (!used[i]) next.push_back(cover[i]);
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    cover = std::move(next);
  }
  // Drop cubes covered by the rest (cheap redundancy cleanup).
  for (std::size_t i = 0; i < cover.size();) {
    bool redundant = true;
    for (std::uint32_t p = 0; p < (1u << k) && redundant; ++p) {
      if (!cube_matches(cover[i], p)) continue;
      bool covered_elsewhere = false;
      for (std::size_t j = 0; j < cover.size(); ++j)
        if (j != i && cube_matches(cover[j], p)) covered_elsewhere = true;
      if (!covered_elsewhere) redundant = false;
    }
    if (redundant)
      cover.erase(cover.begin() + static_cast<long>(i));
    else
      ++i;
  }
  return cover;
}

bool cover_eval(const std::vector<Cube>& cover, std::uint32_t pattern) {
  for (const Cube& cube : cover)
    if (cube_matches(cube, pattern)) return true;
  return false;
}

namespace {

class Decomposer {
 public:
  explicit Decomposer(const Network& src)
      : src_(src), dst_(src.name()), map_(src.size(), kNoNode) {}

  Network run() {
    for (NodeId id : src_.inputs())
      map_[id] = dst_.add_input(src_.node(id).name);
    for (NodeId id : topo_order(src_)) {
      const Node& n = src_.node(id);
      if (n.is_input()) continue;
      if (n.is_constant()) {
        map_[id] = dst_.add_constant(n.constant_value, n.name);
        continue;
      }
      map_[id] = build_gate(n);
    }
    for (const OutputPort& port : src_.outputs())
      dst_.add_output(port.name, mapped(port.driver));
    dst_.sweep_dangling();
    dst_.check();
    return std::move(dst_);
  }

 private:
  NodeId mapped(NodeId src_id) const {
    DVS_ASSERT(map_[src_id] != kNoNode);
    return map_[src_id];
  }

  NodeId inverted(NodeId id) {
    if (static_cast<std::size_t>(id) >= inv_of_.size())
      inv_of_.resize(dst_.size(), kNoNode);
    if (inv_of_[id] == kNoNode) inv_of_[id] = dst_.add_gate(tt_inv(), {id});
    return inv_of_[id];
  }

  /// The SOP cover of `tt`, extracted once per distinct function.
  const std::vector<Cube>& cover_of(const TruthTable& tt) {
    auto [it, inserted] =
        covers_[tt.num_vars].try_emplace(tt.bits & tt.mask());
    if (inserted) it->second = extract_cubes(tt);
    return it->second;
  }

  NodeId nand2(NodeId a, NodeId b) {
    return dst_.add_gate(tt_nand(2), {a, b});
  }

  NodeId and_tree(std::vector<NodeId> items) {
    DVS_EXPECTS(!items.empty());
    while (items.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i + 1 < items.size(); i += 2)
        next.push_back(inverted(nand2(items[i], items[i + 1])));
      if (items.size() % 2) next.push_back(items.back());
      items = std::move(next);
    }
    return items.front();
  }

  NodeId or_tree(std::vector<NodeId> items) {
    DVS_EXPECTS(!items.empty());
    while (items.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i + 1 < items.size(); i += 2)
        next.push_back(nand2(inverted(items[i]), inverted(items[i + 1])));
      if (items.size() % 2) next.push_back(items.back());
      items = std::move(next);
    }
    return items.front();
  }

  NodeId build_gate(const Node& n) {
    const std::vector<Cube>& cover = cover_of(n.function);
    if (cover.empty()) return dst_.add_constant(false);
    std::vector<NodeId> terms;
    for (const Cube& cube : cover) {
      std::vector<NodeId> literals;
      for (std::size_t i = 0; i < cube.size(); ++i) {
        if (cube[i] == 2) continue;
        const NodeId f = mapped(n.fanins[i]);
        literals.push_back(cube[i] ? f : inverted(f));
      }
      if (literals.empty()) return dst_.add_constant(true);
      terms.push_back(and_tree(std::move(literals)));
    }
    return or_tree(std::move(terms));
  }

  const Network& src_;
  Network dst_;
  std::vector<NodeId> map_;     // per source node: its node in dst_
  std::vector<NodeId> inv_of_;  // per dst_ node: its inverter, if made
  /// Per input count: each function's cover, keyed by its table bits.
  std::unordered_map<std::uint64_t, std::vector<Cube>>
      covers_[kMaxGateInputs + 1];
};

}  // namespace

Network decompose_to_nand2(const Network& net) {
  return Decomposer(net).run();
}

}  // namespace dvs
