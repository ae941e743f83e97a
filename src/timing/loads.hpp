// Capacitive load computation shared by the STA and the power model.
// Splits each driver's load into the part it drives directly and the part
// behind its level converter (fanout pins at a higher supply).
#pragma once

#include <vector>

#include "timing/sta.hpp"

namespace dvs {

struct NodeLoads {
  std::vector<double> direct;  // fF seen by the node's own output stage
  std::vector<double> lc;      // fF seen by its level converter (0 if none)
  std::vector<int> lc_fanout_pins;  // #fanout pins rerouted through the LC
};

/// The kernel's load rule over every live node of `ctx`.
NodeLoads compute_loads(const TimingContext& ctx);

/// True iff the fanout arc driver->sink crosses upward in voltage and the
/// driver has an LC (i.e. the arc runs through the converter).
bool arc_through_lc(const TimingContext& ctx, NodeId driver, NodeId sink);

}  // namespace dvs
