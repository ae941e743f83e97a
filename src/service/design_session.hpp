// ECO design sessions: the daemon-global registry of named, refcounted
// design handles behind the open_design / edit / reoptimize / sweep /
// close_design protocol verbs (README.md "ECO sessions").
//
// A handle owns a loaded Design (network + supply assignment), the job
// it was resolved from (effective library, circuit seed — the service's
// one resolver, resolve_job, builds it), the frozen tspec, and a
// maintained IncrementalSta plus an EvalLedger beside it, so a point
// edit (rung, cell swap, resize) re-evaluates timing, power, area and
// gate counts in O(affected) instead of re-simulating the world.
// Structural edits (level-converter insertion/removal) drop both and
// mark the handle dirty; the next reoptimize recompiles the timing graph
// from scratch — the incremental-vs-recompile decision rule is
// structural_version-exact, never heuristic (DESIGN.md).
//
// Lifecycle: handles are refcounted (opening an existing name attaches,
// closing decrements, freed at zero), lazily garbage-collected after
// config.idle_ms of disuse, and evicted oldest-idle-first when their
// estimated resident bytes exceed config.max_bytes.  Closed / expired /
// evicted handles leave tombstones so late requests get a precise,
// protocol-verbatim error instead of a generic "unknown handle".  open
// builds a handle with no lock held and publishes it complete, so no
// verb ever sees a half-built design.
//
// Thread model: a registry mutex guards the handle map, tombstones, and
// counters; each handle carries its own mutex serializing verbs on that
// design.  Lock order is handle -> registry: a verb may take the
// registry while it holds its handle, to update counters.  The registry
// never blocks on a handle (the GC only try_locks), so long verbs on one
// design never stall the others.  sweep and a pipeline reoptimize copy a
// snapshot under the handle lock and compute outside it; a pipeline
// reoptimize's snapshot runs through the stateless job path
// (execute_job), so the registry knows nothing of caches.  The registry
// is service-agnostic on purpose — tests and benches drive it directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/design.hpp"
#include "core/flow.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"
#include "timing/incremental.hpp"

namespace dvs {

class ThreadPool;

struct DesignSessionConfig {
  /// Idle expiry: a handle untouched this long is expired by the lazy
  /// GC that runs on every registry operation (0 = never).
  std::uint64_t idle_ms = 600'000;
  /// Resident-byte budget across all open designs; exceeding it evicts
  /// the oldest-idle handles first (0 = unlimited).
  std::size_t max_bytes = 1ull << 30;
  /// Hard cap on simultaneously open handles.
  std::size_t max_open = 256;
};

/// An open design's state, copied under its handle lock so a long
/// computation on it never holds that lock: the job a stateless optimize
/// of this exact network would resolve to (its key still lacks the
/// network hashes), the options the design was opened with, and the
/// handle itself, which keeps the job's library alive.
struct DesignSnapshot {
  std::shared_ptr<const void> owner;
  ResolvedJob job;
  JobOptions options;
  std::uint64_t structural_version = 0;  // the design's, not the copy's
};

/// What a reoptimize produced.  Evaluate mode (no pipeline/algos) fills
/// `fields` completely; pipeline mode fills the reply's head fields and a
/// snapshot for the caller to run through the stateless job path.
struct DesignReoptimizeResult {
  Json::Object fields;
  std::optional<DesignSnapshot> snapshot;  // pipeline mode only
};

/// Monotonic counters + point-in-time gauges, mirrored into the metrics
/// registry by the service's collector and surfaced in `stats`.
struct DesignRegistryStats {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t expired = 0;   // idle-GC expiries
  std::uint64_t evicted = 0;   // byte-budget evictions
  std::uint64_t edits = 0;
  std::uint64_t reoptimize_incremental = 0;
  std::uint64_t reoptimize_full = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t sweep_cells = 0;
  std::size_t open_now = 0;
  std::size_t resident_bytes = 0;
};

class DesignRegistry {
 public:
  /// Opaque per-design state (defined in the .cpp; public only so file-
  /// local helpers there can name it).
  struct Handle;

  /// `pool` fans sweep cells out (null = serial).
  DesignRegistry(const Library* lib, DesignSessionConfig config,
                 ThreadPool* pool = nullptr);
  ~DesignRegistry();

  DesignRegistry(const DesignRegistry&) = delete;
  DesignRegistry& operator=(const DesignRegistry&) = delete;

  // Each verb returns the response body fields (everything but
  // type/id); failures throw ProtocolError with the wire-exact message.
  Json::Object open(const OpenDesignRequest& request);
  Json::Object edit(const EditRequest& request);
  DesignReoptimizeResult reoptimize(const ReoptimizeRequest& request,
                                    RequestTrace* trace = nullptr);
  Json::Object sweep(const SweepRequest& request);
  Json::Object close(const CloseDesignRequest& request);

  /// Graceful-drain gate: after this, open/edit/reoptimize/sweep are
  /// refused ("draining: design sessions are closing") while
  /// close_design keeps working, so in-flight clients can release their
  /// handles before the service force-closes the rest.
  void begin_drain();

  /// Frees every handle (drain teardown).
  void close_all();

  std::size_t open_count() const;
  DesignRegistryStats stats() const;

 private:
  /// Looks up a live handle (GC first, drain check, tombstone-aware
  /// errors) and stamps its last_used.
  std::shared_ptr<Handle> acquire(const std::string& name,
                                  bool allow_while_draining = false);
  /// Throws why `name` is not open: its tombstone, or unknown.
  [[noreturn]] void throw_not_open_locked(const std::string& name) const;
  /// Expires idle handles and enforces the byte budget.  Registry mutex
  /// must be held; handles are probed with try_lock so an in-flight
  /// verb is never reaped mid-operation.
  void gc_locked(std::chrono::steady_clock::time_point now);
  void retire_locked(const std::string& name, int tombstone);

  const Library* lib_;
  DesignSessionConfig config_;
  ThreadPool* pool_;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Handle>> handles_;
  /// Why a name is gone (values from the Tombstone enum in the .cpp),
  /// so stale clients get the precise story.
  std::unordered_map<std::string, int> tombstones_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  DesignRegistryStats stats_;
};

}  // namespace dvs
