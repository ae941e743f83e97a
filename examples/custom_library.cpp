// Bring-your-own-library: defines a tiny 3.3V standard-cell library from
// scratch (the analytic equivalent of characterizing SPICE decks at both
// supplies), maps a BLIF netlist onto it, and runs the dual-Vdd flow at
// (3.3V, 2.7V).  Demonstrates every Library construction API.
#include <cstdio>

#include "core/job.hpp"
#include "netlist/blif.hpp"
#include "synth/mapper.hpp"

namespace {

dvs::TimingArc make_arc(const dvs::TruthTable& tt, int pin,
                        double intrinsic, double resistance) {
  dvs::TimingArc arc;
  const bool pos = dvs::is_positive_unate(tt, pin);
  const bool neg = dvs::is_negative_unate(tt, pin);
  arc.sense = pos && !neg   ? dvs::ArcSense::kPositiveUnate
              : neg && !pos ? dvs::ArcSense::kNegativeUnate
                            : dvs::ArcSense::kNonUnate;
  arc.intrinsic_rise = intrinsic * 1.1;
  arc.intrinsic_fall = intrinsic * 0.9;
  arc.resistance_rise = resistance * 1.1;
  arc.resistance_fall = resistance * 0.9;
  return arc;
}

void add_cell(dvs::Library& lib, const char* base, int drive,
              dvs::TruthTable tt, double area, double cap,
              double intrinsic, double resistance) {
  dvs::Cell cell;
  cell.name = std::string(base) + "_x" + std::to_string(drive + 1);
  cell.base_name = base;
  cell.drive_index = drive;
  cell.function = tt;
  cell.area = area;
  cell.internal_cap = 0.3 * cap;
  cell.leakage = 0.002 * area;
  for (int pin = 0; pin < tt.num_vars; ++pin) {
    cell.input_cap.push_back(cap);
    cell.arcs.push_back(make_arc(tt, pin, intrinsic, resistance));
  }
  lib.add_cell(std::move(cell));
}

dvs::Library make_tiny_lib() {
  dvs::Library lib("tiny-3v3");
  // A 3.3V process: lower Vt, different alpha than the 0.6um default.
  lib.voltage_model() = dvs::VoltageModel{3.3, 0.55, 1.4};
  lib.set_supplies(3.3, 2.7);
  lib.wire_load() = dvs::WireLoadModel{0.8, 0.9};

  for (int drive = 0; drive < 2; ++drive) {
    const double r = drive == 0 ? 1.0 : 0.55;   // resistance scale
    const double c = drive == 0 ? 1.0 : 1.2;    // cap/area scale
    add_cell(lib, "inv", drive, dvs::tt_inv(), 12 * c, 4 * c, 0.08,
             0.005 * r);
    add_cell(lib, "nand2", drive, dvs::tt_nand(2), 20 * c, 4.4 * c, 0.11,
             0.0062 * r);
    add_cell(lib, "nor2", drive, dvs::tt_nor(2), 22 * c, 4.6 * c, 0.12,
             0.0068 * r);
    add_cell(lib, "and2", drive, dvs::tt_and(2), 26 * c, 4.0 * c, 0.19,
             0.0052 * r);
    add_cell(lib, "or2", drive, dvs::tt_or(2), 27 * c, 4.1 * c, 0.20,
             0.0054 * r);
    add_cell(lib, "xor2", drive, dvs::tt_xor(2), 40 * c, 6.0 * c, 0.21,
             0.0072 * r);
  }
  // The level converter for the (3.3, 2.7) pair.
  dvs::Cell lc;
  lc.name = "lvlconv";
  lc.base_name = "lvlconv";
  lc.function = dvs::tt_buf();
  lc.area = 24;
  lc.internal_cap = 0.8;
  lc.leakage = 0.008;
  lc.is_level_converter = true;
  lc.input_cap.push_back(1.6);
  lc.arcs.push_back(make_arc(dvs::tt_buf(), 0, 0.15, 0.006));
  lib.set_level_converter(lib.add_cell(std::move(lc)));
  return lib;
}

const char* kCircuit = R"(
.model alu_slice
.inputs a0 a1 b0 b1 cin sel
.outputs s0 s1 cout andor
.names a0 b0 p0
10 1
01 1
.names a0 b0 g0
11 1
.names p0 cin s0
10 1
01 1
.names g0 p0 cin c1
1-- 1
-11 1
.names a1 b1 p1
10 1
01 1
.names a1 b1 g1
11 1
.names p1 c1 s1
10 1
01 1
.names g1 p1 c1 cout
1-- 1
-11 1
.names a0 b0 sel andor
110 1
1-1 1
-11 1
.end
)";

}  // namespace

int main() {
  const dvs::Library lib = make_tiny_lib();
  std::printf("library '%s': %d cells at (%.1fV, %.1fV), delay penalty "
              "at Vlow %.1f%%\n",
              lib.name().c_str(), lib.num_cells(), lib.vdd_high(),
              lib.vdd_low(),
              100.0 * (lib.voltage_model().delay_factor(lib.vdd_low()) -
                       1.0));

  dvs::Network src = dvs::read_blif_string(kCircuit);
  const dvs::PaperSetupResult setup = dvs::map_paper_setup(src, lib, 0.2);
  std::printf("mapped %d gates, tspec %.3f ns\n",
              setup.mapped.num_gates(), setup.tspec);

  const dvs::CircuitRunResult row =
      dvs::run_pipeline_job(setup.mapped, lib, {}, /*circuit_seed=*/1,
                            dvs::paper_specs())
          .row;
  std::printf("power %.3f uW | CVS -%.2f%% | Dscale -%.2f%% | Gscale "
              "-%.2f%% (resized %d)\n",
              row.org_power_uw, row.cvs_improve_pct,
              row.dscale_improve_pct, row.gscale_improve_pct,
              row.gscale_resized);
  return 0;
}
