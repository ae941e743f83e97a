// dvsd: the dual-Vdd optimization service.  A persistent daemon that
// accepts NDJSON optimization jobs over a loopback-TCP or Unix-domain
// socket, schedules them on the work-stealing ThreadPool, and answers
// from a content-addressed LRU result cache whenever the (netlist
// topology, sizing, options, library) key has been computed before.
//
// Concurrency model (yadcc-shaped, scaled to one process):
//   - one accept thread, one lightweight thread per connection doing
//     only I/O and dispatch;
//   - all flow computation runs as ThreadPool tasks, so N connections
//     share the worker budget instead of each grabbing a core;
//   - `batch` fans its circuits across the pool and streams each row
//     back the moment it completes (out-of-order by design — items
//     carry `index`).
// Determinism: every job runs its cells through the cell engine
// (core/job.hpp) with the suite's circuit seeds, so a daemon answer is
// bit-identical to the same cell of a serial suite_bench run — cached or
// not.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "library/library.hpp"
#include "service/cache.hpp"
#include "service/design_session.hpp"
#include "service/disk_cache.hpp"
#include "support/metrics.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dvs {

class Session;
class Scheduler;
class WorkerAgent;

struct ServiceConfig {
  /// >= 0 binds 127.0.0.1:tcp_port (0 = kernel-assigned, see port()).
  /// Ignored when unix_path is set.
  int tcp_port = 0;
  std::string unix_path;
  /// Flow workers (0 = hardware concurrency).
  int num_threads = 0;
  /// In-memory result-cache budget in bytes of resident payload.
  std::size_t cache_bytes = 256u << 20;
  /// Disk tier directory (empty = in-memory only).  Entries written
  /// here survive daemon restarts: the same --cache-dir warm-hits.
  std::string cache_dir;
  /// NDJSON line cap — a frame bigger than this is rejected with a
  /// "line too long" error and the connection closes.
  std::size_t max_line_bytes = 64u << 20;
  /// Admission watermark: when this many jobs are already queued or
  /// running, new optimize/batch requests are rejected with a
  /// structured "overloaded" error (0 = 8x worker threads).
  std::size_t max_backlog = 0;
  /// Per-connection cap on concurrently in-flight jobs: a batch submits
  /// at most this many items at once and feeds the rest in as they
  /// complete, so one client cannot monopolize the pool queue.
  std::size_t max_inflight_per_connection = 64;
  /// Graceful-drain budget for stop(): sessions get this long to finish
  /// their in-flight request before their sockets are shut down.
  int drain_timeout_ms = 30'000;
  /// Prometheus scrape endpoint: binds 127.0.0.1:metrics_port and serves
  /// the registry's text exposition over HTTP (-1 = disabled, 0 =
  /// kernel-assigned; see Service::metrics_port()).
  int metrics_port = -1;
  /// NDJSON trace sink: every optimize/batch_item appends one record
  /// (id, circuit, cache tier, wall_ms, spans).  Empty = disabled.
  std::string trace_log_path;
  /// Log requests slower than this to stderr (0 = disabled).  Implies
  /// span collection, so the log line can say *where* the time went.
  double slow_ms = 0.0;
  bool verbose = false;

  // ---- ECO design sessions (see service/design_session.hpp) ----
  /// Idle expiry for open design handles (0 = never).
  std::uint64_t session_idle_ms = 600'000;
  /// Resident-byte budget across open designs (0 = unlimited).
  std::size_t design_bytes = 1u << 30;
  /// Cap on simultaneously open design handles.
  std::size_t max_open_designs = 256;

  // ---- fleet (see service/scheduler.hpp, service/worker.hpp) ----
  /// Accept register_worker connections and dispatch cache misses to
  /// the fleet (falling back to local execution whenever it cannot).
  bool scheduler = false;
  /// Per-job lease deadline: a worker that has not answered within this
  /// budget forfeits the job (retried elsewhere or computed locally).
  int lease_ms = 10'000;
  /// A worker whose channel is silent this long is expired and its
  /// leases requeued.  Workers heartbeat at heartbeat_ms.
  int heartbeat_timeout_ms = 3'000;
  /// Dispatch retry budget after the first attempt; each retry prefers
  /// a different worker and backs off exponentially from
  /// dispatch_backoff_ms with jitter.
  int dispatch_retries = 2;
  int dispatch_backoff_ms = 50;
  /// Non-empty = also join this scheduler address as a worker (the
  /// daemon lends its pool to a fleet while serving its own clients).
  std::string join;
  std::string worker_name;      // identity announced on --join
  int worker_capacity = 0;      // 0 = num_threads
  int heartbeat_ms = 500;       // worker heartbeat cadence on --join
  /// Deterministic fault-injection spec for the --join worker side
  /// (see support/fault_inject.hpp); empty = DVS_FAULT_INJECT env.
  std::string fault_spec;
};

/// Handles into the registry for the service's registry-native
/// instruments — the hot-path counters whose only authority IS the
/// registry (the migrated ServiceCore atomics).  Subsystems with their
/// own counters (ResultCache, DiskCacheEngine, ThreadPool) are instead
/// mirrored in by a collector; see ServiceCore::init_metrics.
struct ServiceMetrics {
  Counter* requests_total = nullptr;
  Counter* connections_total = nullptr;
  Counter* jobs_completed = nullptr;
  Counter* jobs_failed = nullptr;
  Counter* overload_rejections = nullptr;
  Counter* deadline_expired = nullptr;
  Counter* line_too_long = nullptr;
  Gauge* sessions_active = nullptr;
  Gauge* inflight_jobs = nullptr;
  Gauge* backlog_watermark = nullptr;
  Histogram* queue_wait_ms = nullptr;
  Histogram* service_ms_optimize = nullptr;
  Histogram* service_ms_batch_item = nullptr;
  Histogram* service_ms_design = nullptr;
  Histogram* cache_lookup_memory_ms = nullptr;
  Histogram* cache_lookup_disk_ms = nullptr;
};

/// State shared between the server and its sessions.
struct ServiceCore {
  ServiceConfig config;
  const Library* lib = nullptr;
  std::optional<Library> owned_lib;  // when no library was injected

  /// The observability substrate.  `metrics` holds the registry-native
  /// handles (request/job/session counters the service increments
  /// directly); everything with an external authority is mirrored into
  /// `registry` by the collector that init_metrics registers.  The
  /// `stats` reply, the `metrics` reply, and the scrape endpoint all
  /// read through the same registry, so they can never disagree.
  /// Declared BEFORE the pool: members destroy in reverse order, and
  /// pool tasks touch these instruments until the pool's destructor has
  /// joined its workers.
  MetricsRegistry registry;
  ServiceMetrics metrics;
  std::optional<TraceLog> trace_log;  // set when config.trace_log_path

  std::optional<ThreadPool> pool;
  std::optional<ResultCache> cache;
  std::optional<DiskCacheEngine> disk;  // set when config.cache_dir is
  /// ECO design sessions (open_design/edit/reoptimize/sweep/close).
  /// Declared after the subsystems it borrows (pool, caches) so it is
  /// destroyed before them.
  std::optional<DesignRegistry> designs;
  /// Fleet dispatch (set when config.scheduler).  shared_ptr so the
  /// header can stay ignorant of the Scheduler definition; constructed
  /// by init() where it is complete.
  std::shared_ptr<Scheduler> scheduler;
  std::atomic<bool> stopping{false};
  std::chrono::steady_clock::time_point started;
  std::function<void()> request_stop;  // set by Service

  std::size_t backlog_watermark = 0;

  /// Builds the core's subsystems from its config: library, pool,
  /// cache tiers, watermark, fingerprint, instruments, trace log, and
  /// (when config.scheduler) the fleet scheduler.  Shared by Service
  /// and the standalone worker, which runs a core with no listener.
  /// `lib` null = build and own the compass library.
  void init(const Library* lib);

  /// Creates the native instruments and registers the mirror collector.
  /// Must run after pool/cache/disk exist and the watermark is resolved.
  void init_metrics();

  /// True when the request wants spans collected: explicitly via the
  /// request's "trace" flag, or implicitly because every request feeds
  /// the trace log / slow-request log.
  bool want_trace(bool requested) const {
    return requested || trace_log.has_value() || config.slow_ms > 0;
  }

  /// Admission gate for new optimize/batch requests.  A saturated pool
  /// answers `false` immediately — callers reply with a structured
  /// "overloaded" error instead of queuing unboundedly.
  bool admit() const {
    return metrics.inflight_jobs->value() <
           static_cast<double>(backlog_watermark);
  }

  /// Library::fingerprint is a pure function of the (immutable) library;
  /// computed once at startup instead of per request.
  std::uint64_t lib_fingerprint = 0;

  /// (topology_hash, mapping_fingerprint) memo keyed by
  /// "<circuit>@<library fingerprint>": for named circuits those are
  /// pure functions of (descriptor, effective library), so the
  /// cache-hit path skips rebuilding the circuit entirely — including
  /// jobs at custom supply ladders, which memoize under their
  /// ladder-adjusted fingerprint.
  std::mutex named_hash_mutex;
  std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      named_hashes;

  /// Ladder-adjusted Library::fingerprint per SupplyLadder::fingerprint:
  /// custom-supplies requests need the effective fingerprint for the
  /// cache key before the lookup, and the memo keeps the hit path free
  /// of per-request Library copies.
  std::mutex ladder_fp_mutex;
  std::unordered_map<std::uint64_t, std::uint64_t> ladder_fps;
};

class Service {
 public:
  /// `lib` defaults to the compass library when null (built once,
  /// owned by the service).
  explicit Service(ServiceConfig config, const Library* lib = nullptr);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds the socket and spawns the accept thread.  Throws SocketError.
  void start();

  /// Bound TCP port (after start(); 0 for Unix-domain sockets).
  int port() const { return listener_.port(); }

  /// Bound metrics-endpoint port (after start(); 0 when disabled).
  int metrics_port() const { return metrics_listener_.port(); }

  /// Blocks until request_stop() (from a signal handler, a `shutdown`
  /// request, or another thread).
  void wait();

  /// Idempotent, thread- and signal-safe stop trigger.
  void request_stop();

  /// Graceful drain, then teardown: stops accepting, lets every session
  /// finish (and answer) its in-flight request within
  /// config.drain_timeout_ms, force-closes stragglers, joins all
  /// threads, and flushes the disk cache.  Called by the destructor if
  /// needed.
  void stop();

  CacheStats cache_stats() const { return core_.cache->stats(); }
  /// Zeroed stats when no disk tier is configured.
  DiskCacheStats disk_stats() const {
    return core_.disk ? core_.disk->stats() : DiskCacheStats{};
  }
  const ServiceCore& core() const { return core_; }
  ServiceCore& core() { return core_; }

 private:
  void accept_loop();
  void metrics_loop();
  void reap_finished_locked();

  ServiceCore core_;
  ListenSocket listener_;
  std::thread accept_thread_;
  ListenSocket metrics_listener_;
  std::thread metrics_thread_;
  /// Set when config.join is non-empty: this daemon also serves a fleet
  /// as a worker, sharing core_'s pool and cache.
  std::shared_ptr<WorkerAgent> agent_;

  struct Connection {
    std::unique_ptr<Session> session;
    std::thread thread;
  };
  std::mutex connections_mutex_;
  std::vector<Connection> connections_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopped_ = false;
};

}  // namespace dvs
