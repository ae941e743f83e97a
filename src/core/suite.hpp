// Suite reports over the cell engine (core/job.hpp): the MCNC circuits x
// pipeline specs matrix fanned across a work-stealing thread pool.  The
// paper's matrix (specs "cvs", "dscale", "gscale") becomes the Table 1 /
// Table 2 rows and BENCH_suite.json; any other spec list becomes the
// per-pass trajectory document of run_pipeline_suite.
//
// Every seed is a pure function of (suite seed, circuit seed, pass
// position), and each circuit is built and initialized once for all of
// its cells, so results are bit-identical regardless of thread count or
// scheduling — `num_threads = 1` is the serial reference path and
// N-thread runs must reproduce it exactly (suite_test.cpp holds the
// engine to that).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "opt/pipeline.hpp"
#include "support/paper_ref.hpp"

namespace dvs {

struct SuiteOptions {
  /// Shared flow knobs; each circuit's seed becomes its activity seed.
  FlowOptions flow;
  /// Circuits to run (MCNC names); empty = the full 39-circuit suite.
  std::vector<std::string> circuits;
  /// Skip circuits with more gates than this (0 = run everything).
  int max_gates = 0;
  /// Worker threads (1 = serial reference, 0 = hardware concurrency).
  int num_threads = 0;
  /// Root seed every per-task seed is mixed from.
  std::uint64_t seed = 0x5eed;
  /// Supply-ladder voltages to run the matrix at (strictly descending,
  /// validated through SupplyLadder).  Empty = the library's ladder.
  std::vector<double> supplies;
};

struct SuiteReport {
  std::vector<CircuitRunResult> rows;  // suite order, one per circuit
  std::vector<std::optional<PaperRow>> papers;  // aligned with rows
  /// Full ladder the matrix ran at; vdd_high/vdd_low are its top and
  /// bottom rungs (the legacy dual-Vdd header columns).
  std::vector<double> supplies;
  double vdd_high = 0.0;
  double vdd_low = 0.0;
  int num_threads = 0;
  double wall_seconds = 0.0;

  /// Paper-layout tables over the aggregated rows.
  std::string table1() const;
  std::string table2() const;
  /// The BENCH_suite.json document (schema "dvs-bench-suite-v1"; see
  /// README.md for the field list).
  std::string to_json() const;
};

/// Runs the paper's matrix (paper_specs()).  `lib` defaults to the
/// compass library at the paper's (5.0V, 4.3V) when null.  The circuit
/// seed of circuit d is mix_seed(options.seed, d.seed) — the derivation
/// dvsd uses for named circuits, so a daemon answer equals the matching
/// suite row bit for bit.
SuiteReport run_suite(const SuiteOptions& options = {},
                      const Library* lib = nullptr);

void write_suite_json(const SuiteReport& report, const std::string& path);

// ---- pipeline matrices -----------------------------------------------------
// The same matrix over arbitrary specs, reported per cell with its
// per-pass trajectory.  Every pass knob comes from the spec itself (that
// is what makes a spec's canonical form the cell's full identity); the
// specs "cvs", "dscale", "gscale" give exactly run_suite's cells
// (pipeline_test.cpp), and hybrids like
// "cvs | gscale(area_budget=0.05) | dscale" run across the whole suite.

/// One (circuit, pipeline) cell: shared columns plus the executed
/// pipeline's per-pass trajectory.
struct PipelineSuiteCell {
  std::string circuit;
  int num_gates = 0;
  double tspec_ns = 0.0;
  double org_power_uw = 0.0;
  std::string label;       // pass name / "pipeline"
  std::string spec;        // canonical spec of the executed (resolved) cell
  double improve_pct = 0.0;
  PipelineRun run;
};

struct PipelineSuiteReport {
  std::vector<std::string> specs;        // canonical, one per request spec
  std::vector<PipelineSuiteCell> cells;  // circuit-major, spec-minor
  int num_threads = 0;
  double wall_seconds = 0.0;

  /// Human-readable matrix with one trajectory line per executed pass.
  std::string table() const;
  /// Machine-readable document (schema "dvs-bench-pipeline-v1").
  std::string to_json() const;
};

/// Runs the circuits x `pipelines` matrix with run_suite's circuits,
/// seeds, threads, and shared flow knobs.  Every spec is validated
/// before any cell runs.
PipelineSuiteReport run_pipeline_suite(
    const SuiteOptions& options, const std::vector<std::string>& pipelines,
    const Library* lib = nullptr);

}  // namespace dvs
