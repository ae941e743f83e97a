#include "core/sweep_matrix.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "core/job.hpp"
#include "support/thread_pool.hpp"

namespace dvs {

std::string gscale_budget_spec(double budget) {
  return "gscale(area_budget=" + shortest_double_spelling(budget) + ")";
}

std::vector<int> mark_pareto(std::vector<SweepCellResult>& cells) {
  // Sort-then-sweep over (power, arrival) ascending.  A cell is
  // dominated iff some other cell is no worse on both axes and strictly
  // better on one; exact duplicates therefore keep each other on the
  // front, which the equal-power grouping below preserves (a point can
  // only be knocked out by a *strictly* smaller arrival inside its own
  // power group, or by any earlier group's arrival <= its own).
  const std::size_t n = cells.size();
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (cells[a].power_uw != cells[b].power_uw)
      return cells[a].power_uw < cells[b].power_uw;
    return cells[a].arrival_ns < cells[b].arrival_ns;
  });
  double best_prev = std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < n) {
    std::size_t end = g;
    while (end < n &&
           cells[order[end]].power_uw == cells[order[g]].power_uw)
      ++end;
    const double group_best = cells[order[g]].arrival_ns;  // sorted asc
    for (std::size_t k = g; k < end; ++k) {
      const double a = cells[order[k]].arrival_ns;
      cells[order[k]].pareto = best_prev > a && group_best >= a;
    }
    best_prev = std::min(best_prev, group_best);
    g = end;
  }
  std::vector<int> front;
  for (std::size_t i = 0; i < n; ++i)
    if (cells[i].pareto) front.push_back(static_cast<int>(i));
  return front;
}

SweepMatrixResult run_sweep_matrix(
    const std::function<Network(const Library&)>& source,
    const Library& base_lib, const SweepMatrixSpec& spec,
    ThreadPool* pool) {
  std::vector<std::vector<double>> ladders = spec.ladders;
  if (ladders.empty()) ladders.push_back(base_lib.supplies().voltages());
  // Each ladder's operating point, checked before any cell runs (one bad
  // ladder fails the whole grid): the base library retargeted to the
  // ladder, skipping the copy when it already matches.
  std::deque<Library> retargeted;
  std::vector<MatrixCircuit> circuits;
  for (const std::vector<double>& voltages : ladders) {
    SupplyLadder ladder(voltages);
    const Library* lib = &base_lib;
    if (ladder != base_lib.supplies()) {
      retargeted.emplace_back(base_lib);
      retargeted.back().set_supply_ladder(std::move(ladder));
      lib = &retargeted.back();
    }
    circuits.push_back(
        {lib, spec.circuit_seed, [&source, lib] { return source(*lib); }});
  }
  // The area budget a spec pins, for the gscale cells' column (parsing
  // here also rejects a bad spec before any cell runs).
  std::vector<double> budgets;
  for (const Json& cell_spec : spec.specs) {
    const Pipeline pipeline = Pipeline::from_spec(cell_spec);
    budgets.push_back(pipeline_label(pipeline) == "gscale"
                          ? pipeline.pass(0)
                                .canonical_options()
                                .at("area_budget")
                                .as_double()
                          : 0.0);
  }

  std::optional<ThreadPool> private_pool;
  if (pool == nullptr) pool = &private_pool.emplace(1);
  MatrixResult matrix = run_matrix(circuits, spec.specs, spec.base, *pool);

  SweepMatrixResult result;
  result.cells.reserve(matrix.cells.size());
  for (std::size_t t = 0; t < matrix.cells.size(); ++t) {
    const std::size_t l = t / spec.specs.size();
    const Library& lib = *circuits[l].lib;
    const CircuitRunResult& row = matrix.rows[l];
    const JobCellResult& cell = matrix.cells[t];
    const PassStats& last = cell.run.passes.back();
    // The cell's own Table 1/2 columns carry Gscale's sizing counters.
    CircuitRunResult columns;
    fill_paper_columns(cell, &columns);

    SweepCellResult out;
    out.supplies = ladders[l];
    out.area_budget = budgets[t % spec.specs.size()];
    out.algo = cell.label;
    out.delay_penalty_pct =
        100.0 *
        (lib.voltage_model().delay_factor(lib.supplies().bottom()) - 1.0);
    out.gates = row.num_gates;
    out.tspec_ns = row.tspec_ns;
    out.org_power_uw = row.org_power_uw;
    out.power_uw = last.power_uw;
    out.improve_pct = cell.improve_pct;
    out.arrival_ns = last.arrival_ns;
    out.area_um2 = last.area_um2;
    out.low = last.low_gates;
    out.level_converters = last.level_converters;
    out.resized = columns.gscale_resized;
    out.area_increase = columns.gscale_area_increase;
    result.cells.push_back(std::move(out));
  }
  result.pareto = mark_pareto(result.cells);
  return result;
}

Json sweep_matrix_json(const SweepMatrixResult& result) {
  Json::Array cells;
  for (const SweepCellResult& cell : result.cells) {
    Json::Object entry;
    Json::Array supplies;
    for (double v : cell.supplies) supplies.emplace_back(v);
    entry["supplies"] = Json(std::move(supplies));
    if (cell.algo == "gscale")
      entry["area_budget"] = Json(cell.area_budget);
    entry["algo"] = Json(cell.algo);
    entry["delay_penalty_pct"] = Json(cell.delay_penalty_pct);
    entry["gates"] = Json(cell.gates);
    entry["tspec_ns"] = Json(cell.tspec_ns);
    entry["org_power_uw"] = Json(cell.org_power_uw);
    entry["power_uw"] = Json(cell.power_uw);
    entry["improve_pct"] = Json(cell.improve_pct);
    entry["arrival_ns"] = Json(cell.arrival_ns);
    entry["area_um2"] = Json(cell.area_um2);
    entry["low"] = Json(cell.low);
    entry["level_converters"] = Json(cell.level_converters);
    entry["resized"] = Json(cell.resized);
    entry["area_increase"] = Json(cell.area_increase);
    entry["pareto"] = Json(cell.pareto);
    cells.emplace_back(std::move(entry));
  }
  Json::Object object;
  object["cells"] = Json(std::move(cells));
  Json::Array front;
  for (int i : result.pareto)
    front.emplace_back(static_cast<std::int64_t>(i));
  object["pareto"] = Json(std::move(front));
  object["count"] =
      Json(static_cast<std::uint64_t>(result.cells.size()));
  return Json(std::move(object));
}

}  // namespace dvs
