// Command-line driver over the benchmark suite: run any of the paper's
// 39 circuits (or all of them) through a chosen algorithm with
// configurable supplies and budgets, and optionally export the optimized
// netlist as BLIF / structural Verilog / Graphviz.
//
//   $ ./suite_runner --circuit b9 --algo gscale --vlow 4.0 --verilog out.v
//   $ ./suite_runner --circuit b9 --algo gscale --dot out.dot
//   $ ./suite_runner --all --algo cvs
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "benchgen/mcnc.hpp"
#include "core/boundary.hpp"
#include "core/dscale.hpp"
#include "core/gscale.hpp"
#include "netlist/blif.hpp"
#include "netlist/dot.hpp"
#include "netlist/verilog.hpp"

namespace {

struct Args {
  std::string circuit = "b9";
  bool all = false;
  std::string algo = "gscale";  // cvs | dscale | gscale
  double vhigh = 5.0;
  double vlow = 4.3;
  double area_budget = 0.10;
  std::string blif_out;
  std::string verilog_out;
  std::string dot_out;
};

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--circuit")
      args->circuit = value();
    else if (flag == "--all")
      args->all = true;
    else if (flag == "--algo")
      args->algo = value();
    else if (flag == "--vhigh")
      args->vhigh = std::atof(value());
    else if (flag == "--vlow")
      args->vlow = std::atof(value());
    else if (flag == "--area")
      args->area_budget = std::atof(value());
    else if (flag == "--blif")
      args->blif_out = value();
    else if (flag == "--verilog")
      args->verilog_out = value();
    else if (flag == "--dot")
      args->dot_out = value();
    else {
      std::fprintf(stderr,
                   "usage: suite_runner [--circuit NAME | --all] "
                   "[--algo cvs|dscale|gscale] [--vhigh V] [--vlow V] "
                   "[--area RATIO] [--blif F] [--verilog F] [--dot F]\n");
      return false;
    }
  }
  return true;
}

void run_one(const dvs::Library& lib, const dvs::McncDescriptor& d,
             const Args& args) {
  dvs::Network net = dvs::build_mcnc_circuit(lib, d);
  dvs::Design baseline(net, lib);
  const double org = baseline.run_power().total();

  dvs::Design design(net, lib);
  if (args.algo == "cvs") {
    dvs::run_cvs(design);
  } else if (args.algo == "dscale") {
    dvs::run_dscale(design);
  } else {
    dvs::GscaleOptions options;
    options.area_budget_ratio = args.area_budget;
    dvs::run_gscale(design, options);
  }
  const double now = design.run_power().total();
  std::printf("%-10s %-7s: %4d/%4d gates low, %3d converters, "
              "%8.2f -> %8.2f uW (-%5.2f%%), timing %s\n",
              d.name, args.algo.c_str(), design.count_low(),
              design.network().num_gates(), design.count_lcs(), org, now,
              100.0 * (org - now) / org,
              design.run_timing().meets_constraint() ? "met" : "VIOLATED");

  if (!args.blif_out.empty() || !args.verilog_out.empty() ||
      !args.dot_out.empty()) {
    dvs::Network out =
        dvs::materialize_level_converters(design, nullptr);
    if (!args.blif_out.empty()) dvs::write_blif_file(out, args.blif_out);
    if (!args.verilog_out.empty())
      dvs::write_verilog_file(out, lib, args.verilog_out);
    if (!args.dot_out.empty()) {
      std::ofstream file(args.dot_out);
      file << dvs::write_dot(out, [&](const dvs::Node& n) {
        dvs::DotStyle style;
        if (n.is_gate() && n.id < design.network().size() &&
            design.level(n.id) != dvs::kTopRung) {
          style.fill_color = "lightblue";
          style.label_suffix = " (Vlow)";
        }
        return style;
      });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) return 1;

  dvs::Library lib = dvs::build_compass_library();
  lib.set_supplies(args.vhigh, args.vlow);

  if (args.all) {
    for (const dvs::McncDescriptor& d : dvs::mcnc_suite())
      run_one(lib, d, args);
    return 0;
  }
  const dvs::McncDescriptor* d = dvs::find_mcnc(args.circuit);
  if (d == nullptr) {
    std::fprintf(stderr, "unknown circuit '%s'; known:",
                 args.circuit.c_str());
    for (const dvs::McncDescriptor& entry : dvs::mcnc_suite())
      std::fprintf(stderr, " %s", entry.name);
    std::fprintf(stderr, "\n");
    return 1;
  }
  run_one(lib, *d, args);
  return 0;
}
