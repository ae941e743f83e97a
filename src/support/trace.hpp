#pragma once

// Per-request tracing: a RequestTrace accumulates named spans measured
// against a single epoch (the moment the request line arrived), and renders
// them as a JSON array suitable for splicing into a response or an NDJSON
// trace log.
//
// Span depth encodes the contract the service relies on:
//   * depth 0 — request *phases* (parse, admission, queue_wait, resolve,
//     cache_lookup, execute, store, respond; `evaluate` for an ECO
//     evaluation). phase() appends each from where the previous one ended,
//     so they never overlap, leave no gap, and their durations sum to the
//     request wall time when the last phase ends where wall time is read.
//   * depth 1 — detail spans nested inside a phase (per-pass execute times
//     from the pipeline runner, fleet dispatches). These may tile only part
//     of their parent.
//
// RequestTrace is internally locked: batch items append spans from pool
// worker threads while the session thread owns the trace.

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace dvs {

struct TraceSpan {
  std::string name;
  int depth = 0;
  double start_ms = 0.0;  // offset from the trace epoch
  double dur_ms = 0.0;
};

class RequestTrace {
 public:
  using Clock = std::chrono::steady_clock;

  explicit RequestTrace(Clock::time_point epoch)
      : epoch_(epoch), phase_end_(epoch) {}

  Clock::time_point epoch() const { return epoch_; }

  /// Appends the depth-0 phase `name` from where the previous phase ended
  /// (the epoch, for the first) to `end`.
  void phase(const std::string& name, Clock::time_point end = Clock::now());
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int depth = 0);

  // Spans sorted by (start_ms, depth, name); batch workers may have appended
  // them out of order.
  std::vector<TraceSpan> spans() const;

  // JSON array of {"name","depth","start_ms","dur_ms"}, in spans() order.
  Json json() const;

  // Sum of depth-0 durations — by the tiling contract this equals the
  // request wall time.
  double phase_total_ms() const;

 private:
  mutable std::mutex mutex_;
  Clock::time_point epoch_;
  Clock::time_point phase_end_;  // where the next phase starts
  std::vector<TraceSpan> spans_;
};

// Append-only NDJSON sink shared by every session of a daemon; one flushed
// line per write so `tail -f` and crash post-mortems see complete records.
class TraceLog {
 public:
  explicit TraceLog(const std::string& path);  // throws std::runtime_error
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  void write(const Json& record);
  const std::string& path() const { return path_; }

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace dvs
