// Sweep E5: the paper fixes (5V, 4.3V) "in accordance with our internal
// design project"; this sweep shows how the choice trades off.  Lower
// Vlow saves more per gate (V^2) but costs more delay per gate
// (alpha-power law), shrinking the set of gates that fit their slack.
//
// Thin driver over the sweep grid (core/sweep_matrix.hpp) —
// the same grid the dvsd `sweep` verb runs, so a row here matches the
// matching daemon cell bit-for-bit.  `--json` emits one NDJSON object
// per circuit: {"circuit":..., "cells":[...], "pareto":[...]}.
#include <cstdio>
#include <cstring>

#include "benchgen/mcnc.hpp"
#include "core/sweep_matrix.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: sweep_vlow [--json]\n");
      return 1;
    }
  }

  dvs::ThreadPool pool;
  if (!json) {
    std::printf("Sweep E5 — Vlow choice at Vhigh = 5.0V\n");
    std::printf("%-10s | %-7s | %5s | %13s | %6s | %8s %8s | %6s\n",
                "circuit", "algo", "Vlow", "delay-penalty", "low",
                "power", "improv%", "pareto");
  }

  for (const char* name : {"b9", "apex7", "term1"}) {
    const dvs::McncDescriptor* d = dvs::find_mcnc(name);

    dvs::SweepMatrixSpec spec;
    for (double vlow : {4.7, 4.5, 4.3, 4.0, 3.7, 3.3})
      spec.ladders.push_back({5.0, vlow});
    spec.specs = {"cvs", "gscale"};  // E5 contrasts CVS against Gscale
    // The daemon's circuit-seed derivation for named circuits:
    // mix(root seed, descriptor seed), root 0x5eed.
    spec.circuit_seed = dvs::mix_seed(0x5eed, d->seed);

    const auto source = [d](const dvs::Library& lib) {
      return dvs::build_mcnc_circuit(lib, *d);
    };
    const dvs::SweepMatrixResult result =
        dvs::run_sweep_matrix(source, dvs::build_compass_library(), spec,
                              &pool);

    if (json) {
      dvs::Json grid = dvs::sweep_matrix_json(result);
      grid.as_object()["circuit"] = dvs::Json(std::string(name));
      std::printf("%s\n", grid.dump().c_str());
    } else {
      for (const dvs::SweepCellResult& cell : result.cells)
        std::printf(
            "%-10s | %-7s | %5.1f | %12.1f%% | %6d | %8.3f %8.2f | %6s\n",
            name, cell.algo.c_str(), cell.supplies.back(),
            cell.delay_penalty_pct, cell.low, cell.power_uw,
            cell.improve_pct, cell.pareto ? "*" : "");
    }
    std::fflush(stdout);
  }
  return 0;
}
