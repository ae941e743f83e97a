// The sweep grid: supply ladders x pipeline specs on the cell engine
// (core/job.hpp), behind the E5/E6 bench drivers (bench/sweep_vlow.cpp,
// bench/sweep_area_budget.cpp) and the dvsd `sweep` session verb.  The
// paper's cells (cvs, dscale, gscale) plus an area-budget axis written
// as gscale(area_budget=b) specs make the classic grid.  Each ladder is
// one matrix circuit, so its circuit and JobInit are shared by all of
// its cells, and the grid is bit-identical however the cells were
// scheduled.
//
// The circuit comes from a callback taking the ladder's effective
// library: generator-backed drivers rebuild (and re-map) the circuit at
// each ladder's operating point, while design sessions return a
// snapshot of the edited network whose mapping is pinned by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "support/json.hpp"

namespace dvs {

class ThreadPool;

/// What to run: the grid axes and the shared flow configuration.
struct SweepMatrixSpec {
  /// Supply ladders to sweep (each strictly descending, validated by
  /// SupplyLadder).  Empty = just the base library's ladder.
  std::vector<std::vector<double>> ladders;
  /// Pipeline specs run at every ladder, in grid order (at least one).
  std::vector<Json> specs;
  /// Shared flow knobs; the circuit seed seeds every cell (job.hpp).
  FlowOptions base;
  std::uint64_t circuit_seed = 0x5eed;
};

/// gscale with its area budget pinned, spelled so the double survives
/// the spec round trip exactly.
std::string gscale_budget_spec(double budget);

/// One measured cell of the grid.
struct SweepCellResult {
  std::vector<double> supplies;
  double area_budget = 0.0;  // meaningful for gscale cells only
  std::string algo;
  /// Per-gate delay penalty of the ladder's bottom rung (percent).
  double delay_penalty_pct = 0.0;

  int gates = 0;
  double tspec_ns = 0.0;
  double org_power_uw = 0.0;
  double power_uw = 0.0;
  double improve_pct = 0.0;
  double arrival_ns = 0.0;
  double area_um2 = 0.0;
  int low = 0;
  int level_converters = 0;
  int resized = 0;
  double area_increase = 0.0;
  /// True when no other cell has both lower power and lower delay.
  bool pareto = false;
};

struct SweepMatrixResult {
  std::vector<SweepCellResult> cells;  // grid order: ladder, then spec
  std::vector<int> pareto;             // indices of the power/delay front
};

/// Marks the non-dominated cells of the (power, delay) minimization —
/// a cell is on the front iff no other cell is <= on both axes and
/// strictly < on at least one (exact duplicates stay on the front
/// together) — and returns the front's indices in grid order.
/// Sort-then-sweep, O(n log n); exposed for the membership-identity
/// tests against the quadratic pairwise definition.
std::vector<int> mark_pareto(std::vector<SweepCellResult>& cells);

/// Runs the grid on `pool` (null = a private one-thread pool).  `source`
/// is called once per ladder with the ladder's effective library and
/// must return the circuit to optimize; it must be thread-safe (ladders
/// build concurrently).  Must not be called from a pool worker.  Throws
/// on invalid ladders or specs before any cell runs.
SweepMatrixResult run_sweep_matrix(
    const std::function<Network(const Library&)>& source,
    const Library& base_lib, const SweepMatrixSpec& spec,
    ThreadPool* pool = nullptr);

/// {"cells":[...], "pareto":[...], "count":N} — the `sweep` reply body
/// and the bench drivers' --json payload.
Json sweep_matrix_json(const SweepMatrixResult& result);

}  // namespace dvs
