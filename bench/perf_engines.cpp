// Microbenchmarks E7: engine throughput backing the paper's complexity
// discussion (§2.1 O(ne log(n^2/e)) for the MWIS step, §3.1 O(ne^2) for
// Edmonds-Karp).  Google-benchmark binary.
//
// `--json` emits the google-benchmark JSON report (per-algorithm
// wall-clock in `real_time`) so successive runs give a perf trajectory:
//   $ ./perf_engines --json > BENCH_engines.json
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/cvs.hpp"
#include "core/dscale.hpp"
#include "core/gscale.hpp"
#include "opt/pipeline.hpp"
#include "graph/antichain.hpp"
#include "graph/separator.hpp"
#include "power/activity.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "timing/graph.hpp"
#include "timing/incremental.hpp"
#include "timing/sta.hpp"

namespace {

const dvs::Library& lib() {
  static const dvs::Library kLib = dvs::build_compass_library();
  return kLib;
}

const dvs::Network& circuit(const std::string& name) {
  static std::map<std::string, dvs::Network> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const dvs::McncDescriptor* d = dvs::find_mcnc(name);
    it = cache.emplace(name, dvs::build_mcnc_circuit(lib(), *d)).first;
  }
  return it->second;
}

const char* kByIndex[] = {"x2",   "b9", "apex7", "alu4",
                          "k2",   "C7552", "des", "i10"};

/// Cold-start STA: every iteration compiles a throwaway timing graph and
/// analyzes over it (the convenience-overload path).
void BM_Sta(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  for (auto _ : state)
    benchmark::DoNotOptimize(dvs::run_sta(net, lib(), -1.0));
  state.SetLabel(circuit(kByIndex[state.range(0)]).name());
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_Sta)->DenseRange(0, 5);

/// Steady-state full STA over a pre-compiled graph: the shape of every
/// re-analysis inside the optimization loops, and the row to compare
/// against the seed's pointer-chasing BM_Sta numbers.
void BM_FullSta(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  dvs::Design design(net, lib());
  const dvs::TimingContext ctx = design.timing_context();
  for (auto _ : state)
    benchmark::DoNotOptimize(dvs::run_sta(ctx, design.tspec()));
  state.SetLabel(net.name());
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_FullSta)->DenseRange(0, 5);

/// One-shot compilation of Network + Library into the CSR/SoA form.
void BM_TimingGraphCompile(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  for (auto _ : state) {
    dvs::TimingGraph graph(net, lib());
    benchmark::DoNotOptimize(graph.topo_order().data());
  }
  state.SetLabel(net.name());
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_TimingGraphCompile)->DenseRange(0, 5);

void BM_ActivityEstimation(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  dvs::ActivityOptions options;
  options.num_vectors = 1024;
  for (auto _ : state)
    benchmark::DoNotOptimize(dvs::estimate_activity(net, options));
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_ActivityEstimation)->DenseRange(0, 5);

/// Circuit-shaped antichain instance: the whole netlist DAG with random
/// positive weights on a third of the nodes.
dvs::AntichainProblem antichain_instance(const dvs::Network& net) {
  dvs::AntichainProblem p;
  p.num_nodes = net.size();
  p.weight.assign(net.size(), 0.0);
  dvs::Rng rng(11);
  net.for_each_node([&](const dvs::Node& n) {
    if (rng.next_bool(0.33)) p.weight[n.id] = 0.1 + rng.next_double();
    for (dvs::NodeId fo : n.fanouts) p.edges.emplace_back(n.id, fo);
  });
  return p;
}

void BM_AntichainDinic(benchmark::State& state) {
  const auto p = antichain_instance(circuit(kByIndex[state.range(0)]));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dvs::max_weight_antichain(p, dvs::FlowAlgo::kDinic));
}
BENCHMARK(BM_AntichainDinic)->DenseRange(0, 5);

void BM_AntichainEdmondsKarp(benchmark::State& state) {
  const auto p = antichain_instance(circuit(kByIndex[state.range(0)]));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dvs::max_weight_antichain(p, dvs::FlowAlgo::kEdmondsKarp));
}
BENCHMARK(BM_AntichainEdmondsKarp)->DenseRange(0, 5);

void BM_Cvs(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  for (auto _ : state) {
    dvs::Design design(net, lib());
    benchmark::DoNotOptimize(dvs::run_cvs(design));
  }
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_Cvs)->DenseRange(0, 3);

void BM_Dscale(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  for (auto _ : state) {
    dvs::Design design(net, lib());
    benchmark::DoNotOptimize(dvs::run_dscale(design));
  }
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_Dscale)->DenseRange(0, 3);

void BM_Gscale(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  for (auto _ : state) {
    dvs::Design design(net, lib());
    benchmark::DoNotOptimize(dvs::run_gscale(design));
  }
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_Gscale)->DenseRange(0, 3);

/// The direct equivalent of one flow cell: engine call plus the
/// power/delay measurements every cell pays (the baseline row for
/// BM_PipelineOverhead; BM_Cvs measures the bare engine).
void BM_FlowCellDirect(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  for (auto _ : state) {
    dvs::Design design(net, lib());
    dvs::run_cvs(design);
    benchmark::DoNotOptimize(design.count_low());
    benchmark::DoNotOptimize(design.run_power().total());
    benchmark::DoNotOptimize(design.run_timing().worst_arrival);
  }
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_FlowCellDirect)->DenseRange(0, 3);

/// The same cell through the pipeline API: spec parse, registry
/// factory, schema-backed options, and per-pass trajectory capture on
/// top of BM_FlowCellDirect's work.  The gap between the two rows is
/// the price of the composable surface; it must stay a small fraction
/// of the cell (the engine + measurement dominate), not multiply it.
void BM_PipelineOverhead(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  for (auto _ : state) {
    dvs::Design design(net, lib());
    dvs::Pipeline pipeline = dvs::Pipeline::parse("cvs");
    benchmark::DoNotOptimize(pipeline.run(design));
  }
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_PipelineOverhead)->DenseRange(0, 3);

/// Spec-grammar parse + registry dispatch alone (no circuit work): the
/// per-request constant the dvsd service pays to compile a pipeline.
void BM_PipelineParse(benchmark::State& state) {
  for (auto _ : state) {
    dvs::Pipeline pipeline = dvs::Pipeline::parse(
        "cvs | gscale(area_budget=0.05, selector=random) | dscale | trim");
    benchmark::DoNotOptimize(pipeline.fingerprint());
  }
}
BENCHMARK(BM_PipelineParse);

/// One registry counter increment: the per-request fixed cost of the
/// observability layer's native instruments (dvsd bumps a handful of
/// these per request — they must stay in the nanoseconds).
void BM_MetricsCounter(benchmark::State& state) {
  dvs::MetricsRegistry registry;
  dvs::Counter& counter = registry.counter(
      "bench_requests_total", "benchmark counter");
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(counter.value());
  }
}
BENCHMARK(BM_MetricsCounter);

/// One histogram observation into the default 27-bucket latency ladder:
/// the queue-wait / service-time recording path.
void BM_HistogramObserve(benchmark::State& state) {
  dvs::MetricsRegistry registry;
  dvs::Histogram& histogram = registry.histogram(
      "bench_latency_ms", "benchmark histogram", {},
      dvs::MetricsRegistry::default_latency_bounds_ms());
  double v = 0.0;
  for (auto _ : state) {
    v = v < 1000.0 ? v + 0.37 : 0.0;
    histogram.observe(v);
  }
  benchmark::DoNotOptimize(histogram.snapshot().count);
}
BENCHMARK(BM_HistogramObserve);

/// The Dscale/Gscale hot-loop primitive: one voltage flip + incremental
/// re-time, versus the full re-analysis it replaced (BM_Sta).
void BM_IncrementalFlip(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  dvs::Design design(net, lib());
  dvs::IncrementalSta timer(design.timing_context(), design.tspec());
  const dvs::NodeId victim = design.network().outputs()[0].driver;
  bool low = false;
  for (auto _ : state) {
    low = !low;
    design.set_level(victim, low ? design.supplies().deepest()
                                 : dvs::kTopRung);
    timer.on_node_changed(victim);
    benchmark::DoNotOptimize(timer.result().worst_arrival);
  }
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_IncrementalFlip)->DenseRange(0, 5);

/// N candidate rung assignments scored by ONE lane walk.  The second
/// argument is the lane count, swept over {1, 4, 8, 16} so `--json`
/// emits one row per width: the lanes=1 row is the scalar
/// one-candidate-per-walk baseline, and per-candidate cost at width N
/// is real_time / N (the `lanes` counter rides along in the JSON).
/// CI's bench-lanes gate reads these rows on des/i10/C7552.
void BM_MultiLaneSta(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  dvs::Design design(net, lib());
  const int lanes = static_cast<int>(state.range(1));
  std::vector<dvs::NodeId> gates;
  net.for_each_gate([&](const dvs::Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  const dvs::SupplyId deep = design.supplies().deepest();
  dvs::MultiLaneSta engine(design.timing_context(), design.tspec());
  for (auto _ : state) {
    engine.reset_lanes();
    // Deterministic victims spread across the gate list: each lane
    // probes one gate dropped to the deepest rung.
    for (int l = 0; l < lanes; ++l) {
      const int lane = engine.add_lane();
      engine.set_level(lane, gates[(l * gates.size()) / lanes], deep);
    }
    engine.run();
    benchmark::DoNotOptimize(engine.worst_slack(lanes - 1));
  }
  state.SetLabel(net.name());
  state.counters["gates"] = net.num_gates();
  state.counters["lanes"] = lanes;
}
BENCHMARK(BM_MultiLaneSta)->ArgsProduct({{5, 6, 7}, {1, 4, 8, 16}});

/// One Dscale candidate-collection round over the big circuits: the
/// deepest-first batched lane-group scan with the hoisted lowering
/// model (plus the MWIS selection and commit it feeds).
void BM_BatchedDscaleScan(benchmark::State& state) {
  const dvs::Network& net = circuit(kByIndex[state.range(0)]);
  dvs::DscaleOptions options;
  options.run_initial_cvs = false;
  options.max_rounds = 1;
  for (auto _ : state) {
    dvs::Design design(net, lib());
    benchmark::DoNotOptimize(dvs::run_dscale(design, options));
  }
  state.SetLabel(net.name());
  state.counters["gates"] = net.num_gates();
}
BENCHMARK(BM_BatchedDscaleScan)->DenseRange(5, 7);

}  // namespace

int main(int argc, char** argv) {
  // `--json` is shorthand for google-benchmark's JSON reporter, kept
  // stable here so CI and future PRs can diff per-algorithm wall-clock.
  std::vector<char*> args(argv, argv + argc);
  static char json_flag[] = "--benchmark_format=json";
  for (char*& arg : args) {
    if (std::strcmp(arg, "--json") == 0) arg = json_flag;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fputs(
          "usage: perf_engines [--json] [google-benchmark flags]\n"
          "\n"
          "Engine microbenchmarks (cold/steady-state full STA, timing-\n"
          "graph compilation, activity estimation, antichain max-flow,\n"
          "CVS/Dscale/Gscale, pipeline-dispatch overhead, metrics\n"
          "counter/histogram cost, per-flip incremental STA, multi-lane\n"
          "STA at widths 1/4/8/16, batched Dscale scan rounds) over MCNC\n"
          "stand-ins.  --json = --benchmark_format=json (CI stores it as\n"
          "BENCH_engines.json); everything else is passed to\n"
          "google-benchmark (--benchmark_filter=REGEX,\n"
          "--benchmark_min_time=T, ...).  Unknown flags exit non-zero.\n",
          stdout);
      return 0;
    }
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
