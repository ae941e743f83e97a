// The paper's three single-pass cells (cvs, dscale, gscale) on one
// mapped circuit, assembled from the library's public steps: the shared
// job init, a fresh flow Design per cell, and Pipeline::parse/run.  With
// the suite's per-circuit seed this reproduces a run_suite row exactly,
// which is what lets the traced runs put a span around every step and
// the checks recompute any row the service or the suite returned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "benchgen/random_dag.hpp"
#include "core/flow.hpp"
#include "library/library.hpp"
#include "netlist/network.hpp"
#include "opt/pass.hpp"

namespace perfbench {

inline const char* const kPaperSpecs[] = {"cvs", "dscale", "gscale"};

struct PaperCells {
  /// The suite-row columns (gscale_seconds holds the cell's CPU time).
  dvs::CircuitRunResult row;
  /// Final trajectory point of each cell, in kPaperSpecs order.
  std::vector<dvs::PassStats> last;
  /// Improvement of each cell over the original power, in %.
  std::vector<double> improve_pct;
};

/// Runs the three cells.  With a tracer, every step gets a span and the
/// traced-only probes run as well: an activity estimate and a graph
/// compile of the mapped circuit, and STA, timing-critical boundary,
/// critical-path network and separator on the design after CVS.
PaperCells run_paper_cells(const dvs::Network& mapped, const dvs::Library& lib,
                           std::uint64_t circuit_seed, Tracer* tracer);

/// The row as the service reports it, without its clock column.
dvs::Json comparable_row(const dvs::CircuitRunResult& row);

/// True when every cell's final arrival meets the timing constraint.
bool meets_constraint(const PaperCells& cells);

/// The large circuit: the scaling probe's largest instance, which
/// eco-edits also opens from inline BLIF.
inline constexpr int kScaleGates = 20000;
dvs::HybridSpec scale_circuit_spec(std::uint64_t seed, int gates);

}  // namespace perfbench
