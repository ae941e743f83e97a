#include "core/suite.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "benchgen/mcnc.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "library/library.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dvs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Library resolution shared by both suite reports: the caller's
/// library (or the compass default), reladdered onto `options.supplies`
/// when set.  `fallback`/`reladdered` provide the
/// storage; the returned pointer aliases one of them or `lib`.
const Library* effective_library(const SuiteOptions& options,
                                 const Library* lib,
                                 std::optional<Library>* fallback,
                                 std::optional<Library>* reladdered) {
  if (lib == nullptr) lib = &fallback->emplace(build_compass_library());
  if (!options.supplies.empty()) {
    reladdered->emplace(*lib);
    (*reladdered)->set_supply_ladder(SupplyLadder(options.supplies));
    lib = &**reladdered;
  }
  return lib;
}

/// Circuit selection shared by both suite reports.
std::vector<const McncDescriptor*> select_circuits(
    const SuiteOptions& options) {
  std::vector<const McncDescriptor*> selected;
  if (options.circuits.empty()) {
    for (const McncDescriptor& d : mcnc_suite()) selected.push_back(&d);
  } else {
    for (const std::string& name : options.circuits) {
      const McncDescriptor* d = find_mcnc(name);
      DVS_EXPECTS(d != nullptr);
      selected.push_back(d);
    }
  }
  if (options.max_gates > 0) {
    std::erase_if(selected, [&](const McncDescriptor* d) {
      return d->gates > options.max_gates;
    });
  }
  return selected;
}

/// The selected circuits x `specs` on a fresh pool: what both suite
/// reports are views of.
struct SuiteRun {
  MatrixResult matrix;
  int num_threads = 0;
  double wall_seconds = 0.0;
};

SuiteRun run_suite_matrix(const SuiteOptions& options, const Library& lib,
                          const std::vector<const McncDescriptor*>& selected,
                          const std::vector<Json>& specs) {
  std::vector<MatrixCircuit> circuits;
  for (const McncDescriptor* d : selected)
    circuits.push_back({&lib, mix_seed(options.seed, d->seed),
                        [&lib, d] { return build_mcnc_circuit(lib, *d); }});
  SuiteRun run;
  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(options.num_threads);
  run.num_threads = pool.num_threads();
  run.matrix = run_matrix(circuits, specs, options.flow, pool);
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return run;
}

}  // namespace

SuiteReport run_suite(const SuiteOptions& options, const Library* lib) {
  std::optional<Library> fallback;
  std::optional<Library> reladdered;
  lib = effective_library(options, lib, &fallback, &reladdered);

  const std::vector<const McncDescriptor*> selected =
      select_circuits(options);

  SuiteReport report;
  report.supplies = lib->supplies().voltages();
  report.vdd_high = lib->vdd_high();
  report.vdd_low = lib->vdd_low();
  report.papers.reserve(selected.size());
  for (const McncDescriptor* d : selected) report.papers.emplace_back(d->paper);

  SuiteRun run = run_suite_matrix(options, *lib, selected, paper_specs());
  report.rows = std::move(run.matrix.rows);
  report.num_threads = run.num_threads;
  report.wall_seconds = run.wall_seconds;
  return report;
}

std::string SuiteReport::table1() const {
  std::string out = format_table1_header();
  for (std::size_t i = 0; i < rows.size(); ++i)
    out += format_table1_row(rows[i], papers[i]);
  out += format_table1_footer(rows, papers);
  return out;
}

std::string SuiteReport::table2() const {
  std::string out = format_table2_header();
  for (std::size_t i = 0; i < rows.size(); ++i)
    out += format_table2_row(rows[i], papers[i]);
  out += format_table2_footer(rows, papers);
  return out;
}

std::string SuiteReport::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"dvs-bench-suite-v1\",\n";
  out << "  \"supplies\": [";
  for (std::size_t i = 0; i < supplies.size(); ++i)
    out << (i ? ", " : "") << num(supplies[i]);
  out << "],\n";
  out << "  \"vdd_high\": " << num(vdd_high) << ",\n";
  out << "  \"vdd_low\": " << num(vdd_low) << ",\n";
  out << "  \"num_threads\": " << num_threads << ",\n";
  out << "  \"wall_seconds\": " << num(wall_seconds) << ",\n";
  out << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CircuitRunResult& r = rows[i];
    out << "    {\"name\": \"" << json_escape(r.name) << "\""
        << ", \"gates\": " << r.num_gates
        << ", \"tspec_ns\": " << num(r.tspec_ns)
        << ", \"org_power_uw\": " << num(r.org_power_uw) << ",\n";
    // kLowGatesKey is the one spelling of the below-top-rung count
    // shared with the protocol and trajectory emitters.
    const std::string low_key = std::string("\"") + kLowGatesKey + "\": ";
    out << "     \"cvs\": {\"improve_pct\": " << num(r.cvs_improve_pct)
        << ", " << low_key << r.cvs_low << "},\n";
    out << "     \"dscale\": {\"improve_pct\": "
        << num(r.dscale_improve_pct) << ", " << low_key << r.dscale_low
        << ", \"level_converters\": " << r.dscale_lcs << "},\n";
    out << "     \"gscale\": {\"improve_pct\": "
        << num(r.gscale_improve_pct) << ", " << low_key << r.gscale_low
        << ", \"resized\": " << r.gscale_resized
        << ", \"area_increase\": " << num(r.gscale_area_increase)
        << ", \"seconds\": " << num(r.gscale_seconds) << "}}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

void write_suite_json(const SuiteReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write suite JSON: " + path);
  out << report.to_json();
}

// ---- pipeline matrices -----------------------------------------------------

PipelineSuiteReport run_pipeline_suite(
    const SuiteOptions& options, const std::vector<std::string>& pipelines,
    const Library* lib) {
  std::optional<Library> fallback;
  std::optional<Library> reladdered;
  lib = effective_library(options, lib, &fallback, &reladdered);
  DVS_EXPECTS(!pipelines.empty());

  PipelineSuiteReport report;
  // Validate every spec up front (a typo fails the whole matrix
  // immediately) and record the circuit-independent canonical form.
  // The cells run the specs as written: which options a spec set
  // explicitly drives seed resolution.
  std::vector<Json> specs;
  for (const std::string& spec : pipelines) {
    report.specs.push_back(Pipeline::parse(spec).canonical_spec());
    specs.emplace_back(spec);
  }

  SuiteRun run =
      run_suite_matrix(options, *lib, select_circuits(options), specs);
  report.num_threads = run.num_threads;
  report.wall_seconds = run.wall_seconds;
  report.cells.reserve(run.matrix.cells.size());
  for (std::size_t t = 0; t < run.matrix.cells.size(); ++t) {
    const CircuitRunResult& row = run.matrix.rows[t / specs.size()];
    JobCellResult& cell = run.matrix.cells[t];
    report.cells.push_back({row.name, row.num_gates, row.tspec_ns,
                            row.org_power_uw, std::move(cell.label),
                            std::move(cell.spec), cell.improve_pct,
                            std::move(cell.run)});
  }
  return report;
}

std::string PipelineSuiteReport::table() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-10s %-44s %9s %6s %5s %5s %9s\n",
                "circuit", "pipeline", "improve%", "low", "LCs", "resz",
                "cpu_ms");
  out += buf;
  for (const PipelineSuiteCell& cell : cells) {
    const PassStats& last = cell.run.passes.back();
    std::snprintf(buf, sizeof buf,
                  "%-10s %-44.44s %9.2f %6d %5d %5d %9.2f\n",
                  cell.circuit.c_str(), cell.spec.c_str(),
                  cell.improve_pct, last.low_gates, last.level_converters,
                  last.resized, cell.run.cpu_seconds * 1e3);
    out += buf;
    // Trajectory: one line per pass (power/arrival/area after it ran).
    for (const PassStats& p : cell.run.passes) {
      std::snprintf(buf, sizeof buf,
                    "  [%d] %-8s power %9.3f uW  arrival %7.4f ns  area "
                    "%9.1f um2  low %4d  touched %4d",
                    p.position, p.pass.c_str(), p.power_uw, p.arrival_ns,
                    p.area_um2, p.low_gates, p.gates_touched);
      out += buf;
      // Deeper ladders get the per-rung breakdown spelled with the
      // shared rung names ("high v1 ... low").
      const int depth = static_cast<int>(p.level_gates.size());
      if (depth > 2) {
        out += "  [";
        for (SupplyId r = 0; r < depth; ++r) {
          std::snprintf(buf, sizeof buf, "%s%s:%d", r ? " " : "",
                        supply_rung_name(r, depth).c_str(),
                        p.level_gates[r]);
          out += buf;
        }
        out += ']';
      }
      out += '\n';
    }
  }
  return out;
}

std::string PipelineSuiteReport::to_json() const {
  Json::Object doc;
  doc["schema"] = Json("dvs-bench-pipeline-v1");
  doc["num_threads"] = Json(num_threads);
  doc["wall_seconds"] = Json(wall_seconds);
  Json::Array spec_array;
  for (const std::string& spec : specs) spec_array.emplace_back(spec);
  doc["pipelines"] = Json(std::move(spec_array));
  Json::Array cell_array;
  for (const PipelineSuiteCell& cell : cells) {
    Json::Object entry;
    entry["circuit"] = Json(cell.circuit);
    entry["gates"] = Json(cell.num_gates);
    entry["tspec_ns"] = Json(cell.tspec_ns);
    entry["org_power_uw"] = Json(cell.org_power_uw);
    entry["label"] = Json(cell.label);
    entry["spec"] = Json(cell.spec);
    entry["improve_pct"] = Json(cell.improve_pct);
    Json::Array passes;
    for (const PassStats& stats : cell.run.passes)
      passes.emplace_back(pass_stats_json(stats));
    entry["passes"] = Json(std::move(passes));
    cell_array.emplace_back(std::move(entry));
  }
  doc["cells"] = Json(std::move(cell_array));
  return Json(std::move(doc)).dump() + "\n";
}

}  // namespace dvs
