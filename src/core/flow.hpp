// End-to-end experiment setup reproducing the paper's §4: given a mapped
// circuit, fix the timing constraint at the mapped delay (the paper maps
// at minimum delay, relaxes 20%, re-maps with area recovery, and then
// constrains at the resulting delay), measure the original power with
// random simulation, and start every optimization from a fresh copy.
// The cells themselves run through the cell engine (core/job.hpp).
#pragma once

#include <string>

#include "core/design.hpp"

namespace dvs {

/// The knobs every cell of a circuit shares.  Pass knobs belong to the
/// pipeline spec (core/job.hpp), never to these options.
struct FlowOptions {
  ActivityOptions activity;
  double freq_mhz = 20.0;
  /// Extra slack handed to the algorithms on top of the mapped delay
  /// (0.0 = the paper's setup: the mapped delay *is* the constraint).
  double tspec_relax = 0.0;
};

/// One row of Table 1 + Table 2, measured.
struct CircuitRunResult {
  std::string name;
  int num_gates = 0;
  double tspec_ns = 0.0;

  double org_power_uw = 0.0;
  double cvs_improve_pct = 0.0;
  double dscale_improve_pct = 0.0;
  double gscale_improve_pct = 0.0;

  int cvs_low = 0;
  int dscale_low = 0;
  int gscale_low = 0;
  int gscale_resized = 0;
  int dscale_lcs = 0;
  double gscale_area_increase = 0.0;
  double gscale_seconds = 0.0;

  double cvs_low_ratio() const {
    return num_gates ? static_cast<double>(cvs_low) / num_gates : 0.0;
  }
  double dscale_low_ratio() const {
    return num_gates ? static_cast<double>(dscale_low) / num_gates : 0.0;
  }
  double gscale_low_ratio() const {
    return num_gates ? static_cast<double>(gscale_low) / num_gates : 0.0;
  }
};

/// Fills the shared columns of a row: name, gate count, the timing
/// constraint frozen at the mapped delay, and the original (all-high)
/// power.  Every pipeline cell of the matrix starts from this state.
/// Switching activity is a function of the logic alone, so the estimate
/// the original-power measurement already paid for can be handed out via
/// `activity_out` and adopted by every per-cell Design of the same
/// circuit (Design::adopt_activity) instead of being recomputed per cell.
void init_flow_row(const Network& mapped, const Library& lib,
                   const FlowOptions& options, CircuitRunResult* row,
                   Activity* activity_out = nullptr);

/// Fresh per-cell starting state: the mapped circuit with every gate at
/// vdd_high, the activity options / frequency applied, and the timing
/// constraint frozen at `tspec`.
Design make_flow_design(const Network& mapped, const Library& lib,
                        const FlowOptions& options, double tspec);

/// 100 * (original - optimized) / original, 0 when original is 0.
double improvement_pct(double original, double optimized);

}  // namespace dvs
