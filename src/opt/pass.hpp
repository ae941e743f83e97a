// The optimization-pass interface: a named transformation of a Design
// with typed options bound through an OptionSchema.  Passes are created
// by the PassRegistry (opt/registry.hpp) and composed into Pipelines
// (opt/pipeline.hpp); the paper's three algorithms, the boundary-trim
// cleanup, and a no-op measurement probe are the built-ins
// (opt/passes.cpp), and new engines register without touching any
// driver, the suite engine, or the service.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "opt/option_schema.hpp"

namespace dvs {

class Design;

/// Instrumentation for one executed pass: the power/delay/area
/// trajectory point *after* the pass ran, the state counters, and the
/// pass-specific detail counters (rounds, iterations, ...).
struct PassStats {
  std::string pass;          // registered name
  int position = -1;         // index in the pipeline
  double cpu_seconds = 0.0;  // thread CPU time inside run()

  /// Wall-clock window of run(), for request tracing only — the wire
  /// trajectory (pass_stats_json) deliberately reports cpu_seconds, so
  /// cached bodies and suite rows stay byte-identical whether or not a
  /// trace was requested.
  std::chrono::steady_clock::time_point wall_start{};
  std::chrono::steady_clock::time_point wall_end{};

  double power_uw = 0.0;
  double arrival_ns = 0.0;
  double area_um2 = 0.0;
  int low_gates = 0;
  /// Gate count per supply-ladder rung (index = SupplyId); sums to the
  /// design's gate count, with low_gates = everything past index 0.
  std::vector<int> level_gates;
  int level_converters = 0;
  int resized = 0;
  /// Gates whose supply or drive changed across this pass.
  int gates_touched = 0;

  Json::Object details;
};

class Pass {
 public:
  virtual ~Pass() = default;

  /// The registered name ("cvs", "dscale", ...).
  const std::string& name() const { return name_; }

  virtual const OptionSchema& schema() const = 0;
  virtual void* options_blob() = 0;
  const void* options_blob() const {
    return const_cast<Pass*>(this)->options_blob();
  }

  /// Applies a spec's option object through the schema and remembers
  /// which keys the caller set explicitly (seed resolution respects
  /// explicit values).  Throws OptionError on unknown keys / bad ranges.
  void configure(const Json::Object& object) {
    for (const std::string& key : schema().apply(options_blob(), object))
      explicit_keys_.insert(key);
  }

  /// True iff `key` was explicitly set by configure().
  bool is_set(const std::string& key) const {
    return explicit_keys_.count(key) != 0;
  }

  /// Every option, explicitly, in canonical (sorted) form.
  Json::Object canonical_options() const {
    return schema().canonical(options_blob());
  }

  /// Derives stochastic knobs that were not explicitly configured from
  /// (circuit seed, pipeline position) — the suite engine's seed
  /// discipline, so results never depend on scheduling or request order.
  virtual void resolve_seeds(std::uint64_t /*circuit_seed*/,
                             int /*position*/) {}

  /// Runs the pass on the design in place.  `stats` arrives with the
  /// generic fields cleared; the pass fills `details` only — the
  /// pipeline captures the trajectory point and counters around it.
  virtual void run(Design& design, PassStats* stats) = 0;

 protected:
  explicit Pass(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
  std::set<std::string> explicit_keys_;
};

}  // namespace dvs
