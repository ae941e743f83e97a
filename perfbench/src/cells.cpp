#include "cells.hpp"

#include "core/design.hpp"
#include "core/job.hpp"
#include "graph/separator.hpp"
#include "opt/pipeline.hpp"
#include "power/activity.hpp"
#include "service/protocol.hpp"
#include "support/rng.hpp"
#include "timing/cpn.hpp"
#include "timing/graph.hpp"
#include "timing/tcb.hpp"

namespace perfbench {

namespace {

/// Gscale's inner steps on the design CVS left behind: full STA, the
/// timing-critical boundary, its critical-path network, and a minimum
/// weight separator of that network (unit weights).
void probe_critical_paths(const dvs::Design& design, Tracer* tracer) {
  const dvs::TimingContext ctx = design.timing_context();
  dvs::StaResult sta;
  {
    Scope span(tracer, "timing.sta");
    sta = dvs::run_sta(ctx, design.tspec());
  }
  std::vector<dvs::NodeId> tcb;
  {
    Scope span(tracer, "timing.tcb");
    tcb = dvs::compute_tcb(ctx, sta);
  }
  dvs::CriticalPathNetwork cpn;
  {
    Scope span(tracer, "timing.cpn");
    cpn = dvs::extract_cpn(ctx, sta, tcb);
  }
  tracer->count("timing.cpn_nodes", static_cast<double>(cpn.nodes.size()));
  if (cpn.empty() || cpn.sources.empty() || cpn.sinks.empty()) return;

  dvs::SeparatorProblem problem;
  problem.num_nodes = static_cast<int>(cpn.nodes.size());
  std::vector<int> index_of(design.network().size(), -1);
  for (int i = 0; i < problem.num_nodes; ++i) index_of[cpn.nodes[i]] = i;
  problem.weight.assign(problem.num_nodes, 1.0);
  for (const auto& [u, v] : cpn.edges)
    problem.edges.emplace_back(index_of[u], index_of[v]);
  for (dvs::NodeId s : cpn.sources) problem.sources.push_back(index_of[s]);
  for (dvs::NodeId t : cpn.sinks) problem.sinks.push_back(index_of[t]);
  {
    Scope span(tracer, "graph.separator");
    dvs::min_weight_separator(problem);
  }
  tracer->count("graph.separator_nodes", problem.num_nodes);
}

}  // namespace

PaperCells run_paper_cells(const dvs::Network& mapped, const dvs::Library& lib,
                           std::uint64_t circuit_seed, Tracer* tracer) {
  dvs::FlowOptions flow;
  flow.activity.seed = circuit_seed;
  dvs::JobInit init;
  {
    Scope span(tracer, "core.job_init");
    init = dvs::make_job_init(mapped, lib, flow);
  }
  if (tracer) {
    {
      Scope span(tracer, "power.activity");
      dvs::estimate_activity(mapped, flow.activity);
    }
    tracer->count("power.activity_node_vectors",
                  static_cast<double>(mapped.size()) * flow.activity.num_vectors);
    {
      Scope span(tracer, "timing.compile");
      dvs::TimingGraph graph(mapped, lib);
    }
    tracer->count("timing.nodes", mapped.size());
  }

  PaperCells out;
  out.row = init.row;
  for (const char* spec : kPaperSpecs) {
    const int open = tracer ? tracer->open("core.flow_design") : -1;
    dvs::Design design =
        dvs::make_flow_design(mapped, lib, flow, init.row.tspec_ns);
    design.adopt_activity(init.activity);
    if (tracer) tracer->close(open);

    dvs::PipelineRun run;
    {
      Scope span(tracer, "opt.pipeline");
      dvs::Pipeline pipeline = dvs::Pipeline::parse(spec);
      pipeline.resolve_seeds(circuit_seed);
      run = pipeline.run(design);
      if (tracer)
        for (const dvs::PassStats& stats : run.passes)
          tracer->add("opt." + stats.pass, stats.wall_start, stats.wall_end);
    }

    const dvs::PassStats& last = run.passes.back();
    const double improve =
        dvs::improvement_pct(out.row.org_power_uw, last.power_uw);
    const auto count = [&](const char* metric, const char* detail) {
      if (tracer) tracer->count(metric, last.details.at(detail).as_double());
    };
    const std::string name = spec;
    if (name == "cvs") {
      out.row.cvs_low = last.low_gates;
      out.row.cvs_improve_pct = improve;
      count("opt.cvs.lowered", "lowered");
    } else if (name == "dscale") {
      out.row.dscale_low = last.low_gates;
      out.row.dscale_lcs = last.level_converters;
      out.row.dscale_improve_pct = improve;
      count("opt.dscale.rounds", "rounds");
    } else {
      out.row.gscale_low = last.low_gates;
      out.row.gscale_resized =
          static_cast<int>(last.details.at("resized").as_int());
      out.row.gscale_area_increase =
          last.details.at("area_increase").as_double();
      out.row.gscale_seconds = last.cpu_seconds;
      out.row.gscale_improve_pct = improve;
      count("opt.gscale.iterations", "iterations");
      count("opt.gscale.resized", "resized");
    }
    if (tracer) {
      tracer->count("opt.gates_touched", last.gates_touched);
      if (name == "cvs") probe_critical_paths(design, tracer);
    }
    out.last.push_back(last);
    out.improve_pct.push_back(improve);
  }
  return out;
}

dvs::Json comparable_row(const dvs::CircuitRunResult& row) {
  dvs::Json report = dvs::report_json(row, true, true, true);
  report.as_object()["gscale"].as_object().erase("seconds");
  return report;
}

bool meets_constraint(const PaperCells& cells) {
  for (const dvs::PassStats& last : cells.last)
    if (!(last.arrival_ns <= cells.row.tspec_ns + 1e-6)) return false;
  return true;
}

dvs::HybridSpec scale_circuit_spec(std::uint64_t seed, int gates) {
  dvs::HybridSpec spec;
  spec.gates = gates;
  spec.pis = std::max(16, gates / 80);
  spec.pos = std::max(8, gates / 160);
  // Inside the range the MCNC stand-ins span (0.05 .. 0.95).
  spec.critical_fraction = 0.35;
  spec.seed = dvs::mix_seed(seed, 0x5ca1e);
  return spec;
}

}  // namespace perfbench
