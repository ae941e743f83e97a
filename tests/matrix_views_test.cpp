// Pins the views over matrix cells — the sweep reply, the pipeline-matrix
// document, suite rows, and the cache-key document — by a 64-bit hash of
// their dumps, with every clock field (and the process-wide network
// version stamp) removed first.  Any change to these bytes is a wire or
// report change and must be deliberate; a failure prints the dump it
// hashed.
//
// The test drives only long-lived entry points (wire requests through
// parse_request, run_suite, run_pipeline_suite, report_json), so an
// engine refactor can be checked against it without touching it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/suite.hpp"
#include "library/library.hpp"
#include "service/design_session.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"

namespace dvs {
namespace {

void expect_pinned(std::uint64_t expected, const std::string& dump,
                   const char* what) {
  EXPECT_EQ(expected, fnv1a64(dump))
      << what << " changed; its dump was:\n"
      << dump;
}

TEST(MatrixViews, SweepReply) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(parse_request(
                    R"({"type":"open_design","circuit":"b9","name":"pin"})")
                    .open_design);
  const Request sweep = parse_request(
      R"({"type":"sweep","design":"pin","vlow":[4.3,3.7],)"
      R"("ladders":[[5,4.3,3.6]],"area_budgets":[0.05,0.10]})");
  Json::Object reply = registry.sweep(sweep.sweep);
  // A process-wide stamp, not part of the view.
  reply.erase("structural_version");
  expect_pinned(0x11321f39e3b799e1ULL, Json(std::move(reply)).dump(),
                "sweep reply");
}

/// The pipeline-matrix document over x2 and b9 on `supplies` (empty: the
/// library's default ladder), without its clock fields.
std::string pipeline_dump(const std::vector<double>& supplies,
                          const std::vector<std::string>& specs) {
  SuiteOptions options;
  options.circuits = {"x2", "b9"};
  options.flow.activity.num_vectors = 512;
  options.num_threads = 2;
  options.supplies = supplies;
  const PipelineSuiteReport report = run_pipeline_suite(options, specs);
  Json doc = Json::parse(report.to_json());
  doc.as_object().erase("wall_seconds");
  for (Json& cell : doc.as_object().at("cells").as_array())
    for (Json& pass : cell.as_object().at("passes").as_array())
      pass.as_object().erase("cpu_ms");
  return doc.dump();
}

TEST(MatrixViews, PipelineMatrixDocument) {
  expect_pinned(0x35c1a6c5ee35493cULL,
                pipeline_dump({}, {"cvs | gscale(area_budget=0.05) | dscale",
                                   "dscale(selector=greedy)"}),
                "pipeline matrix document");
}

// CVS over a design that already carries converters (after Dscale) and
// resized cells (after Gscale).
const std::vector<std::string> kCvsOverOptimized = {
    "dscale | cvs", "dscale | gscale", "gscale | cvs | dscale"};

TEST(MatrixViews, CvsOverOptimizedDesignsTwoRungs) {
  expect_pinned(0x9e6914f42ebec877ULL,
                pipeline_dump({5.0, 4.3}, kCvsOverOptimized),
                "2-rung CVS-over-optimized pipeline matrix");
}

TEST(MatrixViews, CvsOverOptimizedDesignsFourRungs) {
  expect_pinned(0x3e3b72757007c463ULL,
                pipeline_dump({5.0, 4.6, 4.2, 3.8}, kCvsOverOptimized),
                "4-rung CVS-over-optimized pipeline matrix");
}

/// The suite report over `circuits` as BENCH_suite.json carries it plus
/// every row as the service reports it, both without their clock columns.
std::string suite_dump(const std::vector<double>& supplies,
                       const std::vector<std::string>& circuits = {
                           "b9", "C432", "apex7"}) {
  SuiteOptions options;
  options.circuits = circuits;
  options.flow.activity.num_vectors = 512;
  options.num_threads = 2;
  options.supplies = supplies;
  const SuiteReport report = run_suite(options);
  Json doc = Json::parse(report.to_json());
  doc.as_object().erase("wall_seconds");
  for (Json& circuit : doc.as_object().at("circuits").as_array())
    circuit.as_object().at("gscale").as_object().erase("seconds");
  std::string out = doc.dump();
  for (const CircuitRunResult& row : report.rows) {
    Json report_row = report_json(row, true, true, true);
    report_row.as_object().at("gscale").as_object().erase("seconds");
    out.append("\n").append(report_row.dump());
  }
  return out;
}

TEST(MatrixViews, SuiteRowsTwoRungs) {
  expect_pinned(0x63e73c786c7deeaeULL, suite_dump({5.0, 4.3}),
                "2-rung suite rows");
}

TEST(MatrixViews, SuiteRowsThreeRungs) {
  expect_pinned(0xa690f0fcce0f7435ULL, suite_dump({5.0, 4.3, 3.6}),
                "3-rung suite rows");
}

// Circuits whose Gscale cuts break timing on deeper ladders, so the
// revert search (undo the least useful resizes until the constraint
// holds) fires 11-12 times on each of them; the pins above never reach
// it.
TEST(MatrixViews, SuiteRowsThreeRungsRevertSearch) {
  expect_pinned(0xc3ce0f762d086c3cULL,
                suite_dump({5.0, 4.3, 3.6}, {"z4ml", "dalu", "apex6"}),
                "3-rung suite rows through the revert search");
}

TEST(MatrixViews, SuiteRowsFourRungsRevertSearch) {
  expect_pinned(0x8349e076156a42afULL,
                suite_dump({5.0, 4.6, 4.2, 3.8}, {"C1355", "dalu"}),
                "4-rung suite rows through the revert search");
}

TEST(MatrixViews, CanonicalJobDocuments) {
  const auto canonical = [](const char* line) {
    return canonical_job_json(parse_request(line).optimize, 42);
  };
  expect_pinned(0x4221a1b5830f2172ULL,
                canonical(R"({"type":"optimize","circuit":"x2"})"),
                "canonical job without algos");
  expect_pinned(0xe4b191a5c1059026ULL,
                canonical(R"({"type":"optimize","circuit":"x2",)"
                          R"("algos":["gscale","cvs"]})"),
                "canonical job with algos [gscale, cvs]");
  expect_pinned(0x5520880e4a5f55c7ULL,
                canonical(R"({"type":"optimize","circuit":"x2",)"
                          R"("pipeline":"dscale"})"),
                "canonical job with pipeline dscale");
}

}  // namespace
}  // namespace dvs
