// One client connection of the dvsd service: reads NDJSON requests,
// dispatches them, writes NDJSON responses.  The session thread does
// I/O and cache lookups only — flow computation is submitted to the
// shared ThreadPool, and batch items stream back out-of-order through
// the session's write lock as workers finish them.
//
// Error containment: every per-request failure (malformed JSON, unknown
// fields, bad netlists, unknown circuits) turns into an {"type":"error"}
// response and the connection keeps serving — a client mistake must
// never take the daemon or even its own connection down.
//
// Overload control: new optimize/batch requests are refused with a
// structured "overloaded" error while ServiceCore's admission gate is
// shut; a batch keeps at most max_inflight_per_connection items in the
// pool at once (the rest feed in as items finish); a request's
// deadline_ms is checked when its job is dequeued.  On graceful drain
// (SIGTERM) a busy session finishes and answers its in-flight request
// before closing.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>

#include "service/protocol.hpp"
#include "support/socket.hpp"
#include "support/trace.hpp"

namespace dvs {

struct ServiceCore;

/// Outcome of one optimization job, ready for response assembly.  The
/// body (serialized report/metrics object) is shared with the cache.
struct OptimizeOutcome {
  /// Which cache tier answered: "miss" = computed fresh, "hit" = the
  /// in-memory LRU, "disk" = the persistent tier (promoted to memory).
  enum class Tier { kMiss, kMemory, kDisk };

  std::shared_ptr<const std::string> body;
  Tier tier = Tier::kMiss;
  /// Non-empty when a fleet worker computed the body (its announced
  /// name) — surfaced as the response's "executor" field.
  std::string executor;
  /// When execute_optimize returned — the start of the caller's
  /// "respond" trace span (future wake-up + serialization + send).
  std::chrono::steady_clock::time_point finished{};

  bool cache_hit() const { return tier != Tier::kMiss; }
};

/// The wire spelling of an outcome's tier ("miss" / "hit" / "disk").
const char* cache_tier_name(OptimizeOutcome::Tier tier);

/// Runs one optimize job on the calling thread: resolve the circuit,
/// hash it, consult both cache tiers, run the flow on a miss, store the
/// body (memory + write-behind disk).  Throws on invalid requests;
/// never mutates connection state (shared by the optimize path, batch
/// items, the in-process bench, and tests).  With a non-null `trace`,
/// appends the resolve / cache_lookup / execute / store phase spans plus
/// depth-1 per-pass spans; always records the cache-lookup histograms.
/// With `allow_remote` (and a scheduler with live workers), cache
/// misses are dispatched to the fleet first, falling back to local
/// computation whenever the fleet cannot answer; workers call with
/// allow_remote=false so a job is never re-dispatched.
OptimizeOutcome execute_optimize(ServiceCore& core,
                                 const OptimizeRequest& request,
                                 RequestTrace* trace = nullptr,
                                 bool allow_remote = true);

/// Assembles the shared result-body object (report / metrics /
/// trajectory) from a job's executed cells — the one body layout behind
/// optimize responses, batch items, fleet jobs, and design-session
/// pipeline reoptimizes.  With a non-null `trace`, appends the depth-1
/// per-pass spans.
Json::Object pipeline_body_object(const PipelineJobResult& result,
                                  RequestTrace* trace);

class Session {
 public:
  Session(ServiceCore* core, Socket socket);

  /// Serves the connection until EOF, error, or service stop.
  void run();

  /// Unblocks a blocked recv/send from another thread (forced stop).
  void shutdown();

  /// Graceful-drain request: an idle session is unblocked (and closes)
  /// immediately; a busy one finishes and answers its in-flight
  /// request, then closes instead of reading the next one.
  void request_drain();

  bool finished() const { return finished_.load(); }

  /// Serialized send of one NDJSON line.  Public for the Scheduler,
  /// which answers and commands a registered worker over the worker's
  /// own session socket.
  void write_line(const std::string& line);

 private:
  /// Parses and dispatches one request line; returns true when the
  /// request asked for daemon shutdown.
  bool serve_line(const std::string& line);
  /// `received`/`parsed` bracket parse_request — the first trace phase.
  void handle(const Request& request,
              std::chrono::steady_clock::time_point received,
              std::chrono::steady_clock::time_point parsed);
  void handle_optimize(const Request& request,
                       std::chrono::steady_clock::time_point received,
                       std::chrono::steady_clock::time_point parsed);
  void handle_batch(const Request& request);
  void handle_stats(const Request& request);
  void handle_metrics(const Request& request);
  /// ECO session verbs (service/design_session.hpp).  open_design and
  /// reoptimize run on the pool behind the admission gate (they can
  /// carry full compiles / pipeline runs); edit and close_design answer
  /// inline on this thread (ms-scale); sweep orchestrates inline and
  /// fans its cells onto the pool.
  void handle_design(const Request& request,
                     std::chrono::steady_clock::time_point received);

  ServiceCore* core_;
  Socket socket_;
  std::mutex write_mutex_;
  std::atomic<bool> finished_{false};

  /// Guards the busy/draining handshake between run() and
  /// request_drain(): shutdown() is only safe to fire while the session
  /// is not mid-request, or its response would be cut off.
  std::mutex state_mutex_;
  bool busy_ = false;
  bool draining_ = false;

  /// Set when this connection registered as a fleet worker: run() hands
  /// the channel to the Scheduler after the (idle) handshake completes.
  bool worker_mode_ = false;
  RegisterWorkerRequest worker_info_;
};

}  // namespace dvs
