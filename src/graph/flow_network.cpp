#include "graph/flow_network.hpp"

#include "support/contracts.hpp"

namespace dvs {

int FlowNetwork::add_vertex() { return add_vertices(1); }

int FlowNetwork::add_vertices(int count) {
  DVS_EXPECTS(!laid_out_);
  DVS_EXPECTS(count >= 0);
  const int first = num_vertices();
  offset_.resize(offset_.size() + static_cast<std::size_t>(count), 0);
  return first;
}

int FlowNetwork::add_arc(int from, int to, double cap) {
  DVS_EXPECTS(!laid_out_);
  DVS_EXPECTS(from >= 0 && from < num_vertices());
  DVS_EXPECTS(to >= 0 && to < num_vertices());
  DVS_EXPECTS(cap >= 0.0);
  const int fwd = offset_[from + 1]++;
  ++offset_[to + 1];
  staged_.push_back(StagedArc{from, to, cap});
  return fwd;
}

void FlowNetwork::build_csr() const {
  const int n = num_vertices();
  for (int v = 0; v < n; ++v) offset_[v + 1] += offset_[v];
  arcs_.resize(static_cast<std::size_t>(offset_[n]));
  // Replaying the staging list in order hands out each vertex's slots
  // in the order per-vertex append lists would have.
  std::vector<int> next(offset_.begin(), offset_.end() - 1);
  for (const StagedArc& a : staged_) {
    const int fwd = next[a.from]++;
    const int bwd = next[a.to]++;
    arcs_[fwd] = Arc{a.to, bwd - offset_[a.to], a.cap};
    arcs_[bwd] = Arc{a.from, fwd - offset_[a.from], 0.0};
  }
  std::vector<StagedArc>().swap(staged_);
  laid_out_ = true;
}

double FlowNetwork::flow_on(int from, int index) const {
  const Arc& arc = arcs_of(from)[index];
  return arcs_of(arc.to)[arc.rev].cap;
}

std::vector<char> FlowNetwork::residual_reachable(int source) const {
  std::vector<char> seen(num_vertices(), 0);
  std::vector<int> stack;
  stack.reserve(num_vertices());
  stack.push_back(source);
  seen[source] = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const Arc& arc : arcs_of(v)) {
      if (arc.cap > kFlowEps && !seen[arc.to]) {
        seen[arc.to] = 1;
        stack.push_back(arc.to);
      }
    }
  }
  return seen;
}

}  // namespace dvs
