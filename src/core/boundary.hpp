// Level-converter export.  Design stores rungs only; whether a gate needs
// a converter is the timing kernel's one pin rule (Design::needs_lc): a
// gate needs one exactly when it drives a gate on a strictly shallower
// (higher voltage) ladder rung that is not itself a converter cell — the
// DC-leakage "driving incompatibility" of the paper, generalized from
// low->high to any upward rung boundary.  Stepping down never needs one,
// and a real converter cell ends the boundary.  Primary outputs are block
// boundaries: restoration there belongs to the surrounding system
// (flip-flop style converters, as in Usami-Horowitz), so driving a port
// never needs one.
#pragma once

#include "core/design.hpp"

namespace dvs {

/// Produces a copy of the design's network with the virtual converters
/// instantiated as real `lvlconv` gates in front of the fanouts whose
/// pins run through them.  Returns the new network; `low_mask_out`, when
/// non-null, receives the per-node low flags of the new network
/// (converters and high gates are false).
Network materialize_level_converters(const Design& design,
                                     std::vector<char>* low_mask_out);

}  // namespace dvs
