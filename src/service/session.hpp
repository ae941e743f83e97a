// One client connection of the dvsd service: reads NDJSON requests,
// dispatches them, writes NDJSON responses.  The session thread does I/O
// only: optimize, open_design and reoptimize run as pool jobs through one
// runner, batch items stream back out-of-order through the session's
// write lock as workers finish them, and every job that produces a
// result body takes one path — resolve_job, then execute_job's cache
// step (yadcc's hash, look up, dispatch, store).
//
// Error containment: every per-request failure (malformed JSON, unknown
// fields, bad netlists, unknown circuits) turns into an {"type":"error"}
// response and the connection keeps serving — a client mistake must
// never take the daemon or even its own connection down.  A pool job's
// error travels back to its session as a value (message and code), so
// no exception object is shared between threads.
//
// Overload control: new pool jobs, batches and sweeps are refused with a
// structured "overloaded" error while ServiceCore's admission gate is
// shut; a batch keeps at most max_inflight_per_connection items in the
// pool at once (the rest feed in as items finish); a request's
// deadline_ms is checked when its job is dequeued.  On graceful drain
// (SIGTERM) a busy session finishes and answers its in-flight request
// before closing.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "library/library.hpp"
#include "netlist/network.hpp"
#include "service/cache.hpp"
#include "service/key_memo.hpp"
#include "service/protocol.hpp"
#include "support/socket.hpp"
#include "support/trace.hpp"

namespace dvs {

struct ServiceCore;
struct McncDescriptor;

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

  bool cache_hit() const { return tier != Tier::kMiss; }
};

/// The wire spelling of an outcome's tier ("miss" / "hit" / "disk").
const char* cache_tier_name(OptimizeOutcome::Tier tier);

/// A request's circuit resolved into a job: the effective library
/// (ladder-adjusted when the request pins a supply ladder), the circuit
/// seed, the circuit and the cache key's library, topology and mapping
/// parts (the options part depends on the verb).  The mapped network and
/// the adjusted library copy are built on first use, which the
/// cache-hit path and a miss the fleet answers never make: a named
/// circuit is generated then, and an inline netlist is swept and mapped
/// then (one sent fully mapped is used as sent).  The resolver parses an
/// inline netlist to hash it, unless the memo knew its text; the job then
/// keeps the request's text and parses it on first use.
struct ResolvedJob {
  const McncDescriptor* descriptor = nullptr;  // named circuits only
  /// An inline netlist the memo resolved without a parse: the request it
  /// came in (which outlives the job), and the memo that counts its parse.
  const CircuitSource* unparsed = nullptr;
  KeyMemo* memo = nullptr;
  std::optional<Network> unmapped;  // an inline netlist, until network()
  std::optional<Network> mapped;
  /// The effective library is always *derived* (never a stored pointer
  /// into this struct), so moves and copies of the job never dangle.
  const Library* base_lib = nullptr;
  std::optional<SupplyLadder> custom_ladder;
  std::optional<Library> custom_lib;
  CacheKey key;
  std::uint64_t circuit_seed = 0;

  const Library& library();
  /// The mapped network, built on first use; throws the protocol's
  /// no-gates error for an inline netlist that maps to no gates.  With a
  /// non-null `trace`, an inline netlist's late parse and its mapping
  /// appear as depth-1 `parse_netlist` and `map` spans.
  const Network& network(RequestTrace* trace = nullptr);
};

/// The one resolver: an MCNC name or an inline BLIF/Verilog netlist, at
/// `lib`'s ladder or the one the options pin, into a job.  Throws the
/// protocol's unknown-circuit and parse errors.  `memo` (may be null)
/// serves the key parts of repeat submissions; with it, `source` must
/// outlive the job.
ResolvedJob resolve_job(const CircuitSource& source, const Library& lib,
                        KeyMemo* memo);

/// The one cache step: hashes the request's options into the job's key,
/// then consults the memory tier, then the disk tier (promoting a disk
/// hit to memory); on a miss runs the job and stores the body to both
/// tiers.  With `allow_remote` (and a scheduler with live workers) a miss
/// goes to the fleet first, falling back to local computation whenever
/// the fleet cannot answer; the request must then name its circuit or
/// carry its netlist.  Always records the cache-lookup histograms; with
/// a non-null `trace`, appends the resolve / cache_lookup / execute /
/// store phases plus depth-1 spans inside execute: `parse_netlist` and
/// `map` when an inline netlist is parsed and mapped there, and one per
/// pass.
OptimizeOutcome execute_job(ServiceCore& core, const OptimizeRequest& request,
                            ResolvedJob& job, RequestTrace* trace,
                            bool allow_remote);

/// Runs one optimize job on the calling thread: resolve_job, then
/// execute_job.  Throws on invalid requests; never mutates connection
/// state (shared by the optimize path, batch items, fleet workers, the
/// in-process bench, and tests).  Workers call with allow_remote=false so
/// a job is never re-dispatched.
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
  using Clock = std::chrono::steady_clock;

  /// What a pool job hands its session: body-less reply fields (design
  /// verbs) and/or a cached body (optimize, pipeline reoptimize).
  struct JobReply {
    Json::Object fields;
    OptimizeOutcome outcome;
  };

  /// Parses and dispatches one request line; returns true when the
  /// request asked for daemon shutdown.
  bool serve_line(const std::string& line);
  /// `received`/`parsed` bracket parse_request — the first trace phase.
  void handle(const Request& request, Clock::time_point received,
              Clock::time_point parsed);
  /// optimize, open_design and reoptimize: one pool job each.
  void handle_job(const Request& request, Clock::time_point received,
                  Clock::time_point parsed);
  /// The admission gate: false (after writing the structured
  /// "overloaded" error) when it is shut.
  bool admit(const Json& id);
  /// The one pool-job runner: admission, the in-flight count, queue wait
  /// and the deadline check at dequeue, then `run` on a pool worker while
  /// this thread waits.  Returns nullopt when admission refused the job;
  /// a job's error comes back as a value and is rethrown here.
  std::optional<JobReply> run_pool_job(const Json& id,
                                       Clock::time_point received,
                                       std::uint64_t deadline_ms,
                                       RequestTrace* trace,
                                       const std::function<JobReply()>& run);
  void handle_batch(const Request& request);
  void handle_stats(const Request& request);
  void handle_metrics(const Request& request);
  /// edit and close_design answer inline on this thread (ms-scale);
  /// sweep orchestrates inline behind the admission gate and fans its
  /// cells onto the pool.
  void handle_design(const Request& request, Clock::time_point received);

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
