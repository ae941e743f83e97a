#include "core/job.hpp"

#include <mutex>
#include <utility>

#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace dvs {

namespace {

/// The one per-cell body: a fresh flow Design from the circuit's shared
/// init, then the resolved pipeline.
JobCellResult run_cell(const Network& mapped, const Library& lib,
                       const FlowOptions& flow, const JobInit& init,
                       std::uint64_t circuit_seed, const Json& spec,
                       bool capture_design) {
  Pipeline pipeline = resolve_cell(spec, circuit_seed);
  Design design = make_flow_design(mapped, lib, flow, init.row.tspec_ns);
  design.adopt_activity(init.activity);
  JobCellResult cell;
  cell.label = pipeline_label(pipeline);
  cell.spec = pipeline.canonical_spec();
  cell.run = pipeline.run(design);
  cell.improve_pct = improvement_pct(init.row.org_power_uw,
                                     cell.run.passes.back().power_uw);
  if (capture_design) cell.design.emplace(std::move(design));
  return cell;
}

}  // namespace

const std::vector<Json>& paper_specs() {
  static const std::vector<Json> kSpecs = {Json("cvs"), Json("dscale"),
                                           Json("gscale")};
  return kSpecs;
}

FlowOptions circuit_flow(const FlowOptions& flow,
                         std::uint64_t circuit_seed) {
  FlowOptions out = flow;
  out.activity.seed = circuit_seed;
  return out;
}

Pipeline resolve_cell(const Json& spec, std::uint64_t circuit_seed) {
  Pipeline pipeline = Pipeline::from_spec(spec);
  pipeline.resolve_seeds(circuit_seed);
  return pipeline;
}

std::string pipeline_label(const Pipeline& pipeline) {
  return pipeline.size() == 1 ? pipeline.pass(0).name()
                              : std::string("pipeline");
}

JobInit make_job_init(const Network& mapped, const Library& lib,
                      const FlowOptions& flow) {
  JobInit init;
  init_flow_row(mapped, lib, flow, &init.row, &init.activity);
  return init;
}

void fill_paper_columns(const JobCellResult& cell, CircuitRunResult* row) {
  const PassStats& last = cell.run.passes.back();
  if (cell.label == "cvs") {
    row->cvs_low = last.low_gates;
    row->cvs_improve_pct = cell.improve_pct;
  } else if (cell.label == "dscale") {
    row->dscale_low = last.low_gates;
    row->dscale_lcs = last.level_converters;
    row->dscale_improve_pct = cell.improve_pct;
  } else if (cell.label == "gscale") {
    row->gscale_low = last.low_gates;
    row->gscale_resized =
        static_cast<int>(last.details.at("resized").as_int());
    row->gscale_area_increase = last.details.at("area_increase").as_double();
    row->gscale_seconds = last.cpu_seconds;
    row->gscale_improve_pct = cell.improve_pct;
  }
}

PipelineJobResult run_pipeline_job(const Network& mapped, const Library& lib,
                                   const FlowOptions& flow,
                                   std::uint64_t circuit_seed,
                                   const std::vector<Json>& specs,
                                   bool capture_designs) {
  const FlowOptions seeded = circuit_flow(flow, circuit_seed);
  const JobInit init = make_job_init(mapped, lib, seeded);
  PipelineJobResult out;
  out.row = init.row;
  out.cells.reserve(specs.size());
  for (const Json& spec : specs) {
    out.cells.push_back(run_cell(mapped, lib, seeded, init, circuit_seed,
                                 spec, capture_designs));
    fill_paper_columns(out.cells.back(), &out.row);
  }
  return out;
}

MatrixResult run_matrix(const std::vector<MatrixCircuit>& circuits,
                        const std::vector<Json>& specs,
                        const FlowOptions& flow, ThreadPool& pool) {
  DVS_EXPECTS(!specs.empty());
  struct Shared {
    std::once_flag once;
    Network net;
    FlowOptions flow;
    JobInit init;
  };
  std::vector<Shared> shared(circuits.size());
  MatrixResult out;
  out.cells.resize(circuits.size() * specs.size());
  pool.parallel_for(static_cast<int>(out.cells.size()), [&](int t) {
    const std::size_t c = t / specs.size();
    const MatrixCircuit& circuit = circuits[c];
    Shared& s = shared[c];
    std::call_once(s.once, [&] {
      s.net = circuit.build();
      s.flow = circuit_flow(flow, circuit.seed);
      s.init = make_job_init(s.net, *circuit.lib, s.flow);
    });
    out.cells[t] = run_cell(s.net, *circuit.lib, s.flow, s.init, circuit.seed,
                            specs[t % specs.size()], false);
  });
  out.rows.reserve(circuits.size());
  for (const Shared& s : shared) out.rows.push_back(s.init.row);
  for (std::size_t t = 0; t < out.cells.size(); ++t)
    fill_paper_columns(out.cells[t], &out.rows[t / specs.size()]);
  return out;
}

}  // namespace dvs
