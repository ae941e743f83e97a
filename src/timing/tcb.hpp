// Timing-critical boundary (paper §2): the nodes that sit next to a
// deeper (lower voltage) region of the supply ladder and cannot
// themselves drop a rung without violating the timing constraint.
//
// One interpretation detail (documented in DESIGN.md): a high-voltage node
// driving a primary output is treated as "adjacent to the low region"
// even when none of its gate fanouts is low, because the paper's Gscale
// must be able to start pushing on circuits where CVS lowered nothing
// (C1355, C432, ... in Table 1) — the block boundary outside the POs plays
// the role of the neighbouring low region.
#pragma once

#include <vector>

#include "timing/sta.hpp"

namespace dvs {

/// Nodes forming the TCB under the given operating state.  `sta` must have
/// been produced from `ctx` at the current assignment.
std::vector<NodeId> compute_tcb(const TimingContext& ctx,
                                const StaResult& sta);

}  // namespace dvs
