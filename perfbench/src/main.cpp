// perfbench — the repository benchmark (see ../README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--expected DIR] [--write-expected] [--perturb-expected]
//
// Runs one workload for S seconds and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced (--trace 0), the per-layer metrics traced (--trace 1).
// Exits 0 only when every operation and check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"op_p50_ms", "ms"},    {"op_p99_ms", "ms"},
    {"ops_per_s", "1/s"},   {"peak_rss_mb", "MB"},
};

// A layer a workload does not load reports 0.
constexpr MetricDef kPerLayer[] = {
    {"bench.traced_op_ms", "ms"},
    {"bench.span_coverage", "ratio"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.glue_ms", "ms"},
    {"benchgen.build_ms", "ms"},
    {"netlist.blif_parse_ms", "ms"},
    {"netlist.blif_bytes", "bytes"},
    {"power.activity_ms", "ms"},
    {"power.activity_node_vectors", "count"},
    {"core.job_init_ms", "ms"},
    {"core.flow_design_ms", "ms"},
    {"timing.compile_ms", "ms"},
    {"timing.nodes", "count"},
    {"timing.sta_ms", "ms"},
    {"timing.tcb_ms", "ms"},
    {"timing.cpn_ms", "ms"},
    {"timing.cpn_nodes", "count"},
    {"graph.separator_ms", "ms"},
    {"graph.separator_nodes", "count"},
    {"opt.cvs_ms", "ms"},
    {"opt.dscale_ms", "ms"},
    {"opt.gscale_ms", "ms"},
    {"opt.pipeline_self_ms", "ms"},
    {"opt.cvs.lowered", "count"},
    {"opt.dscale.rounds", "count"},
    {"opt.gscale.iterations", "count"},
    {"opt.gscale.resized", "count"},
    {"opt.gates_touched", "count"},
    {"opt.saving_pct", "%"},
    {"benchgen.build.at20k_ms", "ms"},
    {"power.activity.at20k_ms", "ms"},
    {"timing.compile.at20k_ms", "ms"},
    {"timing.sta.at20k_ms", "ms"},
    {"opt.cvs.at20k_ms", "ms"},
    {"opt.dscale.at20k_ms", "ms"},
    {"opt.gscale.at20k_ms", "ms"},
    {"benchgen.build.scaling_exp", "slope"},
    {"power.activity.scaling_exp", "slope"},
    {"timing.compile.scaling_exp", "slope"},
    {"timing.sta.scaling_exp", "slope"},
    {"opt.cvs.scaling_exp", "slope"},
    {"opt.dscale.scaling_exp", "slope"},
    {"opt.gscale.scaling_exp", "slope"},
    {"service.design.open_ms", "ms"},
    {"service.design.edit_ms", "ms"},
    {"service.design.reoptimize_ms", "ms"},
    {"service.design.edit_us_mcnc", "us"},
    {"service.design.edit_us_large", "us"},
    {"service.design.reoptimize_us_mcnc", "us"},
    {"service.design.reoptimize_us_large", "us"},
    {"service.hit.parse_ms", "ms"},
    {"service.hit.admission_ms", "ms"},
    {"service.hit.queue_wait_ms", "ms"},
    {"service.hit.resolve_ms", "ms"},
    {"service.hit.cache_lookup_ms", "ms"},
    {"service.hit.execute_ms", "ms"},
    {"service.hit.store_ms", "ms"},
    {"service.hit.respond_ms", "ms"},
    {"service.miss.parse_ms", "ms"},
    {"service.miss.admission_ms", "ms"},
    {"service.miss.queue_wait_ms", "ms"},
    {"service.miss.resolve_ms", "ms"},
    {"service.miss.cache_lookup_ms", "ms"},
    {"service.miss.execute_ms", "ms"},
    {"service.miss.store_ms", "ms"},
    {"service.miss.respond_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.errors", "count"},
    {"service.client_ms", "ms"},
};

void usage() {
  std::fputs(
      "usage: perfbench --workload paper-suite|eco-edits|service-mix\n"
      "                 [--seed N] [--seconds S] [--trace 0|1]\n"
      "                 [--expected DIR] [--write-expected] "
      "[--perturb-expected]\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> std::string {
      if (value == nullptr) {
        usage();
        std::exit(2);
      }
      ++i;
      return value;
    };
    if (flag == "--workload") {
      args.workload = take();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(take().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(take().c_str());
    } else if (flag == "--trace") {
      args.trace = take() != "0";
    } else if (flag == "--expected") {
      args.expected_dir = take();
    } else if (flag == "--write-expected") {
      args.write_expected = true;
    } else if (flag == "--perturb-expected") {
      args.perturb_expected = true;
    } else {
      usage();
      return 2;
    }
  }
  if (args.seconds <= 0) {
    usage();
    return 2;
  }

  perfbench::Outcome out;
  try {
    if (args.workload == "paper-suite")
      perfbench::run_paper_suite(args, out);
    else if (args.workload == "eco-edits")
      perfbench::run_eco_edits(args, out);
    else if (args.workload == "service-mix")
      perfbench::run_service_mix(args, out);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 2;
  }

  // Exactly the declared metrics: an end-to-end metric left unset or a
  // name outside the tables is a bug in the benchmark itself.
  std::set<std::string> declared;
  dvs::Json::Object metrics;
  auto emit = [&](const MetricDef& def, bool required) {
    declared.insert(def.name);
    auto it = out.metrics().find(def.name);
    if (it == out.metrics().end() && required) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", def.name);
      std::exit(3);
    }
    dvs::Json::Object entry;
    entry["value"] = dvs::Json(it == out.metrics().end() ? 0.0 : it->second);
    entry["unit"] = dvs::Json(def.unit);
    metrics[def.name] = dvs::Json(std::move(entry));
  };
  if (args.trace)
    for (const MetricDef& def : kPerLayer) emit(def, false);
  else
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  for (const auto& [name, value] : out.metrics()) {
    if (declared.count(name) == 0) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      return 3;
    }
  }

  const bool correct = out.failed() == 0 && out.attempted() > 0;
  dvs::Json::Object result;
  result["correct"] = dvs::Json(correct);
  result["attempted"] = dvs::Json(out.attempted());
  result["failed"] = dvs::Json(out.failed());
  result["metrics"] = dvs::Json(std::move(metrics));
  std::printf("%s\n", dvs::Json(std::move(result)).dump().c_str());
  return correct ? 0 : 1;
}
