// The scaling probe, run at the end of the paper-suite traced run: job
// init plus the cvs, dscale and gscale cells on seeded hybrid circuits of
// 2.5k, 5k, 10k and 20k gates.  Layers that grow faster than the gate
// count hardly register at MCNC sizes; here each layer reports its
// log-log slope of time against gates, and its time on the 20k instance.
// That instance is the large circuit eco-edits opens; at the default
// seed its final values are checked against expected/scale-20k.json.
#include <cmath>

#include "bench.hpp"
#include "cells.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

dvs::Json outputs_json(const PaperCells& cells) {
  dvs::Json::Object doc;
  dvs::Json::Object circuit;
  circuit["gates"] = dvs::Json(cells.row.num_gates);
  circuit["tspec_ns"] = dvs::Json(cells.row.tspec_ns);
  circuit["org_power_uw"] = dvs::Json(cells.row.org_power_uw);
  doc["circuit"] = dvs::Json(std::move(circuit));
  for (std::size_t i = 0; i < cells.last.size(); ++i) {
    const dvs::PassStats& last = cells.last[i];
    dvs::Json::Object cell;
    cell["power_uw"] = dvs::Json(last.power_uw);
    cell["arrival_ns"] = dvs::Json(last.arrival_ns);
    cell["area_um2"] = dvs::Json(last.area_um2);
    cell["low"] = dvs::Json(last.low_gates);
    cell["level_converters"] = dvs::Json(last.level_converters);
    cell["resized"] = dvs::Json(last.resized);
    doc[kPaperSpecs[i]] = dvs::Json(std::move(cell));
  }
  return dvs::Json(std::move(doc));
}

/// Least-squares slope of y over x.
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

}  // namespace

void run_scaling_probe(const Args& args, const dvs::Library& lib, Outcome& out) {
  const char* const layers[] = {"benchgen.build", "power.activity",
                                "timing.compile", "timing.sta",
                                "opt.cvs",        "opt.dscale",
                                "opt.gscale"};
  std::vector<double> log_gates;
  std::map<std::string, std::vector<double>> log_ms;
  PaperCells cells;
  for (int gates : {2500, 5000, 10000, kScaleGates}) {
    // Small instances repeat so every size runs about as long.
    const int reps = kScaleGates / gates;
    Tracer tracer;
    int built = 0;
    for (int r = 0; r < reps; ++r) {
      dvs::Network net;
      {
        Scope span(&tracer, "benchgen.build");
        net = dvs::build_hybrid_circuit(lib, scale_circuit_spec(args.seed, gates),
                                        "hybrid");
      }
      built = net.num_gates();
      cells = run_paper_cells(net, lib, dvs::mix_seed(args.seed, gates), &tracer);
      out.attempt();
      out.check(meets_constraint(cells),
                "scaling probe: a pipeline misses its timing constraint");
    }
    log_gates.push_back(std::log(static_cast<double>(built)));
    const std::map<std::string, double> self = tracer.self_ms();
    for (const char* layer : layers) {
      const double ms = self.at(layer) / reps;
      log_ms[layer].push_back(std::log(std::max(1e-6, ms)));
      if (gates == kScaleGates) out.set(std::string(layer) + ".at20k_ms", ms);
    }
  }
  for (const char* layer : layers)
    out.set(std::string(layer) + ".scaling_exp", slope(log_gates, log_ms[layer]));
  check_expected(args, "scale-20k", outputs_json(cells), out);
}

}  // namespace perfbench
