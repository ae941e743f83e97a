// paper-suite: the paper's experiment.  One operation is one serial
// run_suite over the 39 MCNC stand-ins x {cvs, dscale, gscale} on the
// default {5.0, 4.3} ladder; the bench seed is the suite's root seed.
// The traced run replaces run_suite by the same matrix assembled from
// public steps (cells.hpp), one span per step, and ends with the scaling
// probe (scaling.cpp).
#include <memory>

#include "benchgen/mcnc.hpp"
#include "bench.hpp"
#include "cells.hpp"
#include "core/suite.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

struct SuiteInputs {
  std::unique_ptr<dvs::Library> lib;
  std::vector<dvs::Network> circuits;  // mcnc_suite() order
};

SuiteInputs make_inputs() {
  SuiteInputs in;
  in.lib = std::make_unique<dvs::Library>(dvs::build_compass_library());
  for (const dvs::McncDescriptor& d : dvs::mcnc_suite())
    in.circuits.push_back(dvs::build_mcnc_circuit(*in.lib, d));
  return in;
}

dvs::SuiteReport run_matrix(const dvs::Library& lib, std::uint64_t seed) {
  dvs::SuiteOptions options;
  options.num_threads = 1;
  options.seed = seed;
  return dvs::run_suite(options, &lib);
}

std::string rows_dump(const dvs::SuiteReport& report) {
  std::string out;
  for (const dvs::CircuitRunResult& row : report.rows)
    out += comparable_row(row).dump();
  return out;
}

/// The matrix from public steps.  Traced, each circuit is rebuilt inside
/// a span, as run_suite rebuilds it; untraced, the prebuilt copies serve.
std::vector<PaperCells> run_decomposed(const SuiteInputs& in,
                                       std::uint64_t seed, Tracer* tracer) {
  std::vector<PaperCells> out;
  const auto suite = dvs::mcnc_suite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::uint64_t circuit_seed = dvs::mix_seed(seed, suite[i].seed);
    if (tracer == nullptr) {
      out.push_back(run_paper_cells(in.circuits[i], *in.lib, circuit_seed, nullptr));
      continue;
    }
    dvs::Network net;
    {
      Scope span(tracer, "benchgen.build");
      net = dvs::build_mcnc_circuit(*in.lib, suite[i]);
    }
    out.push_back(run_paper_cells(net, *in.lib, circuit_seed, tracer));
  }
  return out;
}

/// Every decomposed row equals the suite's and meets its constraint.
void check_cells(const std::vector<PaperCells>& cells,
                 const dvs::SuiteReport& report, Outcome& out) {
  out.attempt(static_cast<std::int64_t>(cells.size()));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string name = report.rows[i].name;
    out.check(comparable_row(cells[i].row).dump() ==
                  comparable_row(report.rows[i]).dump(),
              "paper-suite: " + name + " row differs between run_suite and its cells");
    out.check(meets_constraint(cells[i]),
              "paper-suite: " + name + " misses its timing constraint");
  }
}

double mean_saving(const std::vector<PaperCells>& cells) {
  std::vector<double> all;
  for (const PaperCells& c : cells)
    all.insert(all.end(), c.improve_pct.begin(), c.improve_pct.end());
  return mean(all);
}

}  // namespace

void run_paper_suite(const Args& args, Outcome& out) {
  double setup_s = 0.0;
  const SuiteInputs in = repeated_setup(5, &setup_s, make_inputs);

  // Untraced operations: the whole window, or a third of it when traced.
  const double untraced_s = args.trace ? args.seconds / 3 : args.seconds;
  const std::size_t min_ops = args.trace ? 2 : 3;
  std::vector<double> op_ms;
  dvs::SuiteReport first;
  std::string first_rows;
  const Clock::time_point start = Clock::now();
  while (op_ms.size() < min_ops || ms_since(start) < untraced_s * 1e3) {
    const Clock::time_point t0 = Clock::now();
    dvs::SuiteReport report = run_matrix(*in.lib, args.seed);
    op_ms.push_back(ms_since(t0));
    out.attempt();
    if (first_rows.empty()) {
      first_rows = rows_dump(report);
      first = std::move(report);
    } else {
      out.check(rows_dump(report) == first_rows,
                "paper-suite: rows changed between repeated runs");
    }
  }
  const double busy_s = ms_since(start) / 1e3;

  if (!args.trace) {
    // Checked outside the timed window.
    check_cells(run_decomposed(in, args.seed, nullptr), first, out);
    dvs::Json::Object rows;
    for (const dvs::CircuitRunResult& row : first.rows)
      rows[row.name] = comparable_row(row);
    check_expected(args, "paper-suite", dvs::Json(std::move(rows)), out);
    out.set("setup_s", setup_s);
    set_latency_metrics(out, op_ms, busy_s);
    return;
  }

  Tracer tracer;
  int traced_ops = 0;
  std::vector<PaperCells> cells;
  const Clock::time_point traced_start = Clock::now();
  while (traced_ops < 1 || ms_since(traced_start) < args.seconds * 2e3 / 3) {
    {
      Scope root(&tracer, "bench.op");
      cells = run_decomposed(in, args.seed, &tracer);
    }
    ++traced_ops;
    out.attempt();
    check_cells(cells, first, out);
  }
  // The traced wall time includes the checks between operations, so the
  // span coverage shows any time the spans miss.
  set_trace_metrics(out, tracer, ms_since(traced_start), traced_ops, mean(op_ms));
  out.set("opt.saving_pct", mean_saving(cells));
  run_scaling_probe(args, *in.lib, out);
}

}  // namespace perfbench
