// One post-order build on an explicit stack, shared by the BLIF and
// Verilog readers and the technology mapper.  Each of them creates a node
// only after the nodes it reads; built recursively, that nests once per
// logic level, and a long chain from an untrusted client overflows the
// thread's stack.  This walk keeps its open definitions on the heap, so
// depth costs memory, not stack, and no depth cap is needed.
//
// It visits in the order a recursive builder would: depth first from each
// root, dependencies in pin order, each node created once its last
// dependency is.  Callers keep their roots in their old order, so node
// ids, and every hash, fingerprint and float fold over them, do not
// change with the walk.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "netlist/network.hpp"

namespace dvs {

/// Builds definition `root` after every definition it reads and returns
/// its node.  Definitions are dense indices into `built`, which holds
/// kNoNode for one the walk has not reached and the node of one already
/// built (callers preset what exists up front, such as primary inputs);
/// the walk marks the definitions whose dependencies it is building.
/// Calls for successive roots share `built`, so each definition is built
/// once.
///
///   deps(def)           the references `def` reads, in pin order, as a
///                       contiguous container that stays valid until
///                       `def` is created; called once per definition,
///                       when the walk reaches it
///   resolve(ref, user)  the definition `ref` names, read by `user`; throws
///                       the caller's undefined-name error
///   create(def, fanins) makes `def`'s node, one fanin per reference, and
///                       returns it
///   cycle(def)          throws the caller's cycle error: `def` was
///                       reached again while its dependencies were built
template <typename Deps, typename Resolve, typename Create, typename Cycle>
NodeId elaborate(int root, std::vector<NodeId>& built, Deps&& deps,
                 Resolve&& resolve, Create&& create, Cycle&& cycle) {
  constexpr NodeId kBuilding = -2;
  if (built[root] != kNoNode) return built[root];
  using Refs = decltype(std::span(deps(root)));
  struct Frame {
    int def;
    Refs refs;
    std::size_t next = 0;
    std::vector<NodeId> fanins;
  };
  std::vector<Frame> stack;
  auto open = [&](int def) {
    built[def] = kBuilding;
    const Refs refs = std::span(deps(def));
    stack.push_back({def, refs, 0, {}});
    stack.back().fanins.reserve(refs.size());
  };
  open(root);
  for (;;) {
    Frame& top = stack.back();
    if (top.next < top.refs.size()) {
      const int def = resolve(top.refs[top.next++], top.def);
      if (built[def] == kBuilding) cycle(def);
      if (built[def] == kNoNode)
        open(def);
      else
        top.fanins.push_back(built[def]);
      continue;
    }
    const NodeId id = create(top.def, std::move(top.fanins));
    built[top.def] = id;
    stack.pop_back();
    if (stack.empty()) return id;
    stack.back().fanins.push_back(id);
  }
}

}  // namespace dvs
