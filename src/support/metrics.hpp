#pragma once

// A process-wide observability substrate: a lock-sharded registry of named,
// labeled Counters, Gauges, and log-bucketed Histograms, dumped in the
// Prometheus text exposition format (version 0.0.4).
//
// Two usage patterns coexist:
//   * registry-native instruments — call-site code holds a Counter*/Gauge*/
//     Histogram* handle and increments/observes directly (hot paths pay one
//     relaxed atomic op);
//   * mirrored instruments — subsystems that keep their own authoritative
//     counters (ResultCache, DiskCacheEngine, ThreadPool) are copied into
//     registry instruments by a registered collector callback that runs just
//     before every exposition/read, so an exposition shows each source as of
//     that read.  dvsd's `stats` reply reads those sources directly, not this
//     registry: it matches `metrics` only where a collector mirrors the same
//     source.
//
// Instrument handles are stable for the registry's lifetime: families live in
// a std::map per shard and instruments are heap-allocated, so neither insert
// nor rehash ever moves them.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dvs {

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing 64-bit counter. `set` exists solely for mirrored
// instruments whose authoritative value lives elsewhere; native call sites
// must only ever `inc`.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Double-valued gauge. add() is a CAS loop so it works on toolchains without
// std::atomic<double>::fetch_add.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// A point-in-time copy of a histogram, safe to merge and query off-thread.
// `bounds` are ascending inclusive upper bounds (Prometheus `le` semantics:
// bucket i counts values v with v <= bounds[i]); `counts` has one extra
// trailing slot for the +Inf overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  // Adds `other` into this snapshot; bucket layouts must match.
  void merge(const HistogramSnapshot& other);

  // Estimates the q-quantile (q in [0,1]) by linear interpolation inside the
  // bucket that straddles the target rank. Values past the last finite bound
  // clamp to it. Returns 0 for an empty histogram.
  double quantile(double q) const;
};

class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

  // `count` bounds starting at `start`, each `growth` times the previous.
  static std::vector<double> exponential_bounds(double start, double growth,
                                                int count);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Escapes a label value for the exposition format: backslash, double quote,
// and newline.
std::string escape_label_value(const std::string& value);

// Renders labels as `{k="v",k2="v2"}` with keys sorted; empty labels render
// as an empty string. Exposed for tests.
std::string render_label_set(const MetricLabels& labels);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. Re-requesting the same (name, labels) returns the same
  // instrument; requesting an existing family with a different instrument
  // kind throws std::logic_error.
  Counter& counter(const std::string& name, const std::string& help,
                   const MetricLabels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const MetricLabels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const MetricLabels& labels = {},
                       std::vector<double> bounds = default_latency_bounds_ms());

  // Registers a callback that mirrors external counters into registry
  // instruments; all collectors run at the top of every exposition().
  void register_collector(std::function<void()> fn);
  void collect();

  // Prometheus text exposition (collect() included). Families are emitted
  // sorted by name, instruments sorted by rendered label set, so the output
  // is deterministic.
  std::string exposition();

  // Log2 buckets from 1 µs to ~67 s, expressed in milliseconds.
  static std::vector<double> default_latency_bounds_ms();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string help;
    Kind kind = Kind::kCounter;
    // Keyed by rendered label set so lookup and output order coincide.
    std::map<std::string, Instrument> instruments;
  };

  struct Shard {
    std::mutex mutex;
    std::map<std::string, Family> families;
  };

  Instrument& instrument(const std::string& name, const std::string& help,
                         Kind kind, const MetricLabels& labels);
  Shard& shard_for(const std::string& name);

  static constexpr int kShards = 8;
  std::array<Shard, kShards> shards_;
  std::mutex collectors_mutex_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace dvs
