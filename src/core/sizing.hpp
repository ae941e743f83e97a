// Gate-sizing support for Gscale: evaluates the area/time trade of moving
// a gate to its next drive variant.
#pragma once

#include "core/design.hpp"

namespace dvs {

struct ResizeOption {
  bool available = false;
  int new_cell = -1;
  double delay_gain = 0.0;    // ns saved on the gate's own worst arc
  double area_penalty = 0.0;  // um^2 added
  /// The Gscale separator weight: area penalty over timing improvement
  /// (paper: weight_with_area_versus_time_gain).  Infinite when the move
  /// buys no time.
  double weight = 0.0;
};

/// Evaluates upsizing `id` one drive step at its current load and supply.
ResizeOption evaluate_upsize(const Design& design, const StaResult& sta,
                             NodeId id);

}  // namespace dvs
