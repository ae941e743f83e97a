// The full SIS-style flow on a BLIF netlist: read -> cleanup -> map at
// minimum delay -> relax 20% -> area-recovery map -> dual-Vdd assignment
// -> write the optimized netlist (converters materialized) back out.
//
//   $ ./blif_flow [input.blif [output.blif]]
//
// Without arguments a small demonstration netlist is used and the result
// is printed instead of written.
#include <cstdio>
#include <fstream>

#include "core/boundary.hpp"
#include "core/gscale.hpp"
#include "core/job.hpp"
#include "netlist/blif.hpp"
#include "netlist/stats.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace {

const char* kDemo = R"(
.model demo
.inputs a b c d e f
.outputs y z
.names a b t1
11 1
.names c d t2
1- 1
-1 1
.names t1 t2 t3
10 1
01 1
.names t3 e t4
11 1
.names t4 f y
1- 1
-1 1
.names t2 e z
11 1
.end
)";

}  // namespace

int main(int argc, char** argv) {
  const dvs::Library lib = dvs::build_compass_library();

  dvs::Network src = argc > 1 ? dvs::read_blif_file(argv[1])
                              : dvs::read_blif_string(kDemo);
  std::printf("read '%s': %s\n", src.name().c_str(),
              dvs::describe(dvs::network_stats(src)).c_str());

  // Technology-independent cleanup (script.rugged stand-in).
  const dvs::SweepStats swept = dvs::sweep_network(src);
  std::printf("sweep removed %d nodes\n", swept.total());

  // Map at minimum delay, relax 20%, re-map for area (the paper's setup).
  const dvs::PaperSetupResult setup = dvs::map_paper_setup(src, lib, 0.2);
  std::printf("mapped: %s\n",
              dvs::describe(dvs::network_stats(setup.mapped)).c_str());
  std::printf("tmin %.3f ns -> tspec %.3f ns\n", setup.tmin, setup.tspec);

  // Dual-Vdd flow (CVS baseline + Dscale + Gscale, each from scratch).
  const dvs::CircuitRunResult row =
      dvs::run_pipeline_job(setup.mapped, lib, {}, /*circuit_seed=*/1,
                            dvs::paper_specs())
          .row;
  std::printf("original power %.2f uW | CVS -%.2f%% | Dscale -%.2f%% | "
              "Gscale -%.2f%%\n",
              row.org_power_uw, row.cvs_improve_pct,
              row.dscale_improve_pct, row.gscale_improve_pct);

  // Re-run the winner to materialize its converters and export.
  dvs::Design design(setup.mapped, lib, setup.tspec);
  dvs::run_gscale(design);
  dvs::Network out = dvs::materialize_level_converters(design, nullptr);
  const std::string blif = dvs::write_blif_string(out);
  if (argc > 2) {
    std::ofstream file(argv[2]);
    file << blif;
    std::printf("wrote %s (%d gates incl. converters)\n", argv[2],
                out.num_gates());
  } else {
    std::printf("\noptimized netlist (%d gates incl. converters):\n%s",
                out.num_gates(), blif.c_str());
  }
  return 0;
}
