// Shared pieces of the perfbench driver: the command-line arguments, the
// run outcome (attempted/failed operations plus named metrics), an
// in-memory span recorder for the traced runs, and small statistics and
// clock helpers.
//
// Every layer is timed from outside: a span wraps a call into one of the
// library's public functions, named `<src module>.<call>`.  Spans stay in
// memory and are folded into per-layer self times when the run ends; a
// span's self time is its duration minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "library/library.hpp"
#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point start, Clock::time_point end);
double ms_since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the committed expected outputs (default seed).
  std::string expected_dir = "perfbench/expected";
  /// Rewrites the expected outputs from this run instead of checking.
  bool write_expected = false;
  /// Self-test: alters one expected value before the comparison, which
  /// must then be reported as a failure.
  bool perturb_expected = false;
};

/// The seed whose outputs are committed under expected/.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// What one run reports: operations attempted and failed, and metrics.
class Outcome {
 public:
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  /// Counts one failed or mismatched operation and logs why (the first
  /// few only, to stderr).
  void fail(const std::string& why);
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  void set(const std::string& name, double value) { metrics_[name] = value; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::map<std::string, double> metrics_;
};

/// Spans of one traced run, kept in memory.  Spans nest by call order:
/// a span opened while another is open becomes its child.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  int open(std::string name);
  void close(int id);
  /// Records an already finished span as a child of the open span (used
  /// for the pass windows a Pipeline run reports).
  void add(std::string name, Clock::time_point start, Clock::time_point end);
  /// Adds to a named work counter.
  void count(const std::string& name, double amount);

  /// Self time per span name, summed over the run, in ms.
  std::map<std::string, double> self_ms() const;
  /// Sum of every span's self time, in ms.
  double total_self_ms() const;
  const std::map<std::string, double>& counters() const { return counters_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->open(std::move(name)) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
double mean(const std::vector<double>& sample);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Runs `make` `repeats` times and returns the last result; the median
/// wall time of the repeats lands in `*median_s`.
template <class Make>
auto repeated_setup(int repeats, double* median_s, Make&& make) {
  std::vector<double> seconds;
  auto run_once = [&] {
    const Clock::time_point start = Clock::now();
    auto value = make();
    seconds.push_back(ms_since(start) / 1e3);
    return value;
  };
  auto value = run_once();
  for (int i = 1; i < repeats; ++i) value = run_once();
  *median_s = quantile(seconds, 0.5);
  return value;
}

/// Sets the end-to-end metrics of the measured window from the
/// per-operation latencies and the wall time the operations took
/// (checks made inside the window excluded).
void set_latency_metrics(Outcome& out, const std::vector<double>& op_ms,
                         double busy_s);

/// Compares `actual` against the committed expected document
/// `<expected_dir>/<name>.json` (exact equality of every value), or
/// writes it when args.write_expected.  Only the default seed has
/// expected outputs.
void check_expected(const Args& args, const std::string& name,
                    const dvs::Json& actual, Outcome& out);

/// Folds a traced run into per-layer metrics, each per traced
/// operation: `<span>_ms` self times (the root span "bench.op" becomes
/// bench.glue_ms, "opt.pipeline" opt.pipeline_self_ms), the work
/// counters, and the `bench.*` figures: traced wall time, the share of
/// it the spans' self times account for, and the tracing overhead
/// against untraced operations of the same workload.
void set_trace_metrics(Outcome& out, const Tracer& tracer,
                       double traced_wall_ms, int traced_ops,
                       double untraced_op_ms);

// ---- workloads -------------------------------------------------------------

void run_paper_suite(const Args& args, Outcome& out);
/// Part of the paper-suite traced run (scaling.cpp).
void run_scaling_probe(const Args& args, const dvs::Library& lib, Outcome& out);
void run_eco_edits(const Args& args, Outcome& out);
void run_service_mix(const Args& args, Outcome& out);

}  // namespace perfbench
