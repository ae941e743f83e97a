// The cell engine: every (circuit, ladder, pipeline spec) cell runs
// through the functions below, whichever driver asked for it — the
// paper suite, pipeline matrices, sweeps, and each dvsd optimize, batch
// item, and pipeline reoptimize.  A matrix is a list of pipeline specs:
// the paper's is paper_specs() ("cvs", "dscale", "gscale"), a sweep adds
// "gscale(area_budget=b)" specs, and a dvsd `algos` list names the same
// three.  Table 1/2 rows, the pipeline-matrix document, the sweep grid,
// and the service replies are views over the cell results.
//
// Seed rule (DESIGN.md "Seeds"): the cells of a circuit with seed s
// estimate switching activity with seed s, and every stochastic pass knob
// the spec leaves unset derives from (s, pass position) — never from
// scheduling or request order.  circuit_flow and resolve_cell are the
// two halves of that rule.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "opt/pipeline.hpp"

namespace dvs {

class ThreadPool;

/// The paper's matrix: one single-pass spec per algorithm of Tables 1/2,
/// in table order.
const std::vector<Json>& paper_specs();

/// `flow` with the circuit seed as its activity seed: the options every
/// cell of that circuit runs with.
FlowOptions circuit_flow(const FlowOptions& flow, std::uint64_t circuit_seed);

/// Parses one spec (grammar string or JSON form; see opt/pipeline.hpp)
/// and derives its unset stochastic knobs from the circuit seed.  The
/// cache key and the execution of a cell both come from here, so a job
/// can never run something its key does not describe.  Throws
/// PipelineError / OptionError on malformed specs.
Pipeline resolve_cell(const Json& spec, std::uint64_t circuit_seed);

/// The pass name for a single-pass pipeline, "pipeline" otherwise.
std::string pipeline_label(const Pipeline& pipeline);

/// Precomputed circuit-shared job state: init_flow_row's columns plus
/// the switching-activity estimate.  Both are pure functions of the
/// mapped circuit and the circuit flow, so every cell of a circuit
/// shares one computation — the values are identical to what each cell
/// would compute itself.
struct JobInit {
  CircuitRunResult row;
  Activity activity;
};

/// Computes the shared state once (one STA for the constraint, one power
/// measurement, one activity estimate).
JobInit make_job_init(const Network& mapped, const Library& lib,
                      const FlowOptions& flow);

/// One executed cell: the canonical spec it ran, the per-pass trajectory,
/// the final improvement over the original power, and — when capture was
/// requested — the final optimized Design.
struct JobCellResult {
  std::string label;
  std::string spec;
  double improve_pct = 0.0;
  PipelineRun run;
  std::optional<Design> design;
};

/// Copies a paper cell's final trajectory point into its Table 1/2
/// columns of `row`; cells of other pipelines leave the row untouched.
void fill_paper_columns(const JobCellResult& cell, CircuitRunResult* row);

/// One circuit's cells: its shared columns with every paper cell's
/// columns filled in, and the cells in spec order.
struct PipelineJobResult {
  CircuitRunResult row;
  std::vector<JobCellResult> cells;
};

/// Runs every spec on `mapped`, one after another on the calling thread
/// — the one-circuit form dvsd executes on a pool worker.
/// `capture_designs` moves each cell's final Design into its result.
PipelineJobResult run_pipeline_job(const Network& mapped, const Library& lib,
                                   const FlowOptions& flow,
                                   std::uint64_t circuit_seed,
                                   const std::vector<Json>& specs,
                                   bool capture_designs = false);

/// One (circuit, ladder) of a matrix: the effective library, the circuit
/// seed, and how to build the mapped circuit.  `build` runs once, on a
/// pool worker, and must be safe to call concurrently with the builds of
/// the matrix's other circuits.
struct MatrixCircuit {
  const Library* lib = nullptr;
  std::uint64_t seed = 0;
  std::function<Network()> build;
};

/// Rows per circuit (shared columns plus paper columns, as in
/// PipelineJobResult) and cells circuit-major: cell c * specs.size() + s
/// ran spec s on circuit c.
struct MatrixResult {
  std::vector<CircuitRunResult> rows;
  std::vector<JobCellResult> cells;
};

/// Runs circuits x specs on `pool`, one task per cell.  Each circuit's
/// build and JobInit are computed once, by whichever of its cells starts
/// first, and shared by the rest.  Results do not depend on the thread
/// count; a one-thread pool runs the cells in index order.  Must not be
/// called from a pool worker; a failing cell's exception is rethrown
/// here.
MatrixResult run_matrix(const std::vector<MatrixCircuit>& circuits,
                        const std::vector<Json>& specs,
                        const FlowOptions& flow, ThreadPool& pool);

}  // namespace dvs
