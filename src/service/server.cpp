#include "service/server.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "service/scheduler.hpp"
#include "service/session.hpp"
#include "service/worker.hpp"
#include "support/version.hpp"

namespace dvs {

void ServiceCore::init(const Library* injected) {
  lib = injected != nullptr ? injected
                            : &owned_lib.emplace(build_compass_library());
  pool.emplace(config.num_threads);
  cache.emplace(config.cache_bytes);
  memo.emplace(config.cache_bytes);
  if (!config.cache_dir.empty()) disk.emplace(config.cache_dir);
  backlog_watermark =
      config.max_backlog > 0
          ? config.max_backlog
          : static_cast<std::size_t>(pool->num_threads()) * 8;
  DesignSessionConfig design_config;
  design_config.idle_ms = config.session_idle_ms;
  design_config.max_bytes = config.design_bytes;
  design_config.max_open = config.max_open_designs;
  designs.emplace(lib, design_config, &*pool);
  started = std::chrono::steady_clock::now();
  init_metrics();
  if (!config.trace_log_path.empty())
    trace_log.emplace(config.trace_log_path);
  if (config.scheduler) scheduler = std::make_shared<Scheduler>(this);
}

void ServiceCore::init_metrics() {
  ServiceMetrics& m = metrics;
  m.requests_total = &registry.counter(
      "dvsd_requests_total", "Protocol requests parsed (any type).");
  m.connections_total = &registry.counter(
      "dvsd_connections_total", "Client connections accepted.");
  m.jobs_completed = &registry.counter(
      "dvsd_jobs_completed_total", "Optimize jobs answered successfully.");
  m.jobs_failed = &registry.counter(
      "dvsd_jobs_failed_total", "Optimize jobs that raised an error.");
  m.overload_rejections = &registry.counter(
      "dvsd_overload_rejections_total",
      "Requests rejected by the admission gate.");
  m.deadline_expired = &registry.counter(
      "dvsd_deadline_expired_total",
      "Jobs whose deadline_ms expired while queued.");
  m.line_too_long = &registry.counter(
      "dvsd_line_too_long_total",
      "Connections dropped for exceeding the NDJSON line cap.");
  m.sessions_active =
      &registry.gauge("dvsd_sessions_active", "Live client sessions.");
  m.inflight_jobs = &registry.gauge(
      "dvsd_inflight_jobs", "Jobs submitted to the pool, not yet finished.");
  m.backlog_watermark = &registry.gauge(
      "dvsd_backlog_watermark", "Admission gate threshold on inflight jobs.");
  m.backlog_watermark->set(static_cast<double>(backlog_watermark));
  m.queue_wait_ms = &registry.histogram(
      "dvsd_queue_wait_ms", "Submission-to-dequeue wait per job (ms).");
  m.service_ms_optimize = &registry.histogram(
      "dvsd_service_ms", "Request wall time (ms).", {{"type", "optimize"}});
  m.service_ms_batch_item = &registry.histogram(
      "dvsd_service_ms", "Request wall time (ms).", {{"type", "batch_item"}});
  m.cache_lookup_memory_ms = &registry.histogram(
      "dvsd_cache_lookup_ms", "Result-cache probe time (ms).",
      {{"tier", "memory"}});
  m.cache_lookup_disk_ms = &registry.histogram(
      "dvsd_cache_lookup_ms", "Result-cache probe time (ms).",
      {{"tier", "disk"}});
  m.service_ms_design = &registry.histogram(
      "dvsd_service_ms", "Request wall time (ms).", {{"type", "design"}});
  registry.gauge("dvsd_build_info", "Constant 1; the version label is the payload.",
                 {{"version", kDvsVersion}})
      .set(1.0);

  // Mirrored instruments: the caches and the pool keep their own
  // authoritative counters; this collector copies them into the registry
  // at the top of every exposition()/stats read.
  Counter& mem_hits = registry.counter(
      "dvsd_cache_hits_total", "Result-cache hits.", {{"tier", "memory"}});
  Counter& mem_misses = registry.counter(
      "dvsd_cache_misses_total", "Result-cache misses.", {{"tier", "memory"}});
  Counter& disk_hits = registry.counter(
      "dvsd_cache_hits_total", "Result-cache hits.", {{"tier", "disk"}});
  Counter& disk_misses = registry.counter(
      "dvsd_cache_misses_total", "Result-cache misses.", {{"tier", "disk"}});
  Counter& evictions = registry.counter(
      "dvsd_cache_evictions_total", "Memory-tier LRU evictions.");
  Counter& rejected = registry.counter(
      "dvsd_cache_rejected_total",
      "Payloads too large for the memory budget.");
  Gauge& entries = registry.gauge(
      "dvsd_cache_entries", "Memory-tier resident entries.");
  Gauge& bytes = registry.gauge(
      "dvsd_cache_bytes", "Memory-tier resident payload bytes.");
  Gauge& capacity = registry.gauge(
      "dvsd_cache_capacity_bytes", "Memory-tier byte budget.");
  Counter& disk_writes = registry.counter(
      "dvsd_disk_writes_total", "Disk-tier entries persisted.");
  Counter& disk_write_errors = registry.counter(
      "dvsd_disk_write_errors_total", "Disk-tier failed writes.");
  Counter& disk_bytes_written = registry.counter(
      "dvsd_disk_bytes_written_total", "Disk-tier payload bytes persisted.");
  Gauge& pool_threads =
      registry.gauge("dvsd_pool_threads", "Flow worker threads.");
  Gauge& pool_depth = registry.gauge(
      "dvsd_pool_depth", "Pool tasks queued or running right now.");
  Gauge& pool_peak = registry.gauge(
      "dvsd_pool_depth_peak", "High-water mark of dvsd_pool_depth.");
  Counter& pool_tasks = registry.counter(
      "dvsd_pool_tasks_total", "Pool tasks retired since startup.");
  Gauge& uptime =
      registry.gauge("dvsd_uptime_seconds", "Seconds since service start.");
  // ECO design-session instruments, mirrored from the registry's stats.
  Gauge& sessions_open = registry.gauge(
      "dvsd_sessions_open", "Open design handles (ECO sessions).");
  Gauge& designs_bytes = registry.gauge(
      "dvsd_designs_resident_bytes",
      "Estimated resident bytes of open designs.");
  Counter& design_opened = registry.counter(
      "dvsd_design_opened_total", "open_design requests honored.");
  Counter& design_closed = registry.counter(
      "dvsd_design_closed_total", "Design handles fully closed.");
  Counter& design_expired = registry.counter(
      "dvsd_design_expired_total", "Design handles expired by the idle GC.");
  Counter& design_evicted = registry.counter(
      "dvsd_design_evicted_total",
      "Design handles evicted under the byte budget.");
  Counter& design_edits = registry.counter(
      "dvsd_design_edits_total", "Design edits applied.");
  Counter& design_reopt_incr = registry.counter(
      "dvsd_design_reoptimize_total", "Design reoptimizations served.",
      {{"mode", "incremental"}});
  Counter& design_reopt_full = registry.counter(
      "dvsd_design_reoptimize_total", "Design reoptimizations served.",
      {{"mode", "full"}});
  Counter& design_sweep_cells = registry.counter(
      "dvsd_design_sweep_cells_total", "Sweep matrix cells computed.");
  // The resolver's memo, mirrored from its own stats.
  Counter& inline_parses = registry.counter(
      "dvsd_resolver_inline_parses_total",
      "Inline netlist texts parsed by the optimize resolver.");
  Counter& memo_hits = registry.counter(
      "dvsd_resolver_memo_hits_total",
      "Inline netlist texts resolved from the memo without a parse.");
  Gauge& memo_entries = registry.gauge(
      "dvsd_resolver_memo_entries", "Inline texts resident in the memo.");
  Gauge& memo_bytes = registry.gauge(
      "dvsd_resolver_memo_bytes", "Text bytes of the memo's inline slots.");
  registry.register_collector([this, &mem_hits, &mem_misses, &disk_hits,
                               &disk_misses, &evictions, &rejected, &entries,
                               &bytes, &capacity, &disk_writes,
                               &disk_write_errors, &disk_bytes_written,
                               &pool_threads, &pool_depth, &pool_peak,
                               &pool_tasks, &uptime, &sessions_open,
                               &designs_bytes, &design_opened, &design_closed,
                               &design_expired, &design_evicted,
                               &design_edits, &design_reopt_incr,
                               &design_reopt_full, &design_sweep_cells,
                               &inline_parses, &memo_hits, &memo_entries,
                               &memo_bytes] {
    const CacheStats cs = cache->stats();
    mem_hits.set(cs.hits);
    mem_misses.set(cs.misses);
    evictions.set(cs.evictions);
    rejected.set(cs.rejected);
    entries.set(static_cast<double>(cs.entries));
    bytes.set(static_cast<double>(cs.bytes));
    capacity.set(static_cast<double>(cs.capacity_bytes));
    const DiskCacheStats ds = disk ? disk->stats() : DiskCacheStats{};
    disk_hits.set(ds.hits);
    disk_misses.set(ds.misses);
    disk_writes.set(ds.writes);
    disk_write_errors.set(ds.write_errors);
    disk_bytes_written.set(ds.bytes_written);
    const ThreadPoolStats ps = pool->stats();
    pool_threads.set(ps.threads);
    pool_depth.set(ps.pending);
    pool_peak.set(ps.peak_pending);
    pool_tasks.set(ps.tasks_executed);
    uptime.set(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count());
    const DesignRegistryStats drs =
        designs ? designs->stats() : DesignRegistryStats{};
    sessions_open.set(static_cast<double>(drs.open_now));
    designs_bytes.set(static_cast<double>(drs.resident_bytes));
    design_opened.set(drs.opened);
    design_closed.set(drs.closed);
    design_expired.set(drs.expired);
    design_evicted.set(drs.evicted);
    design_edits.set(drs.edits);
    design_reopt_incr.set(drs.reoptimize_incremental);
    design_reopt_full.set(drs.reoptimize_full);
    design_sweep_cells.set(drs.sweep_cells);
    const KeyMemoStats ms = memo->stats();
    inline_parses.set(ms.inline_parses);
    memo_hits.set(ms.hits);
    memo_entries.set(static_cast<double>(ms.entries));
    memo_bytes.set(static_cast<double>(ms.bytes));
  });
}

Service::Service(ServiceConfig config, const Library* lib) {
  core_.config = std::move(config);
  core_.init(lib);
  core_.request_stop = [this] { request_stop(); };
}

Service::~Service() { stop(); }

void Service::start() {
  listener_ = core_.config.unix_path.empty()
                  ? ListenSocket::listen_tcp(core_.config.tcp_port)
                  : ListenSocket::listen_unix(core_.config.unix_path);
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (core_.config.metrics_port >= 0) {
    metrics_listener_ = ListenSocket::listen_tcp(core_.config.metrics_port);
    metrics_thread_ = std::thread([this] { metrics_loop(); });
  }
  if (!core_.config.join.empty()) {
    WorkerAgentConfig agent_config;
    agent_config.connect = core_.config.join;
    agent_config.name = core_.config.worker_name;
    agent_config.capacity = core_.config.worker_capacity;
    agent_config.heartbeat_ms = core_.config.heartbeat_ms;
    agent_config.faults = core_.config.fault_spec.empty()
                              ? FaultInjector::from_env()
                              : FaultInjector::parse(core_.config.fault_spec);
    agent_config.verbose = core_.config.verbose;
    agent_ = std::make_shared<WorkerAgent>(&core_, std::move(agent_config));
    agent_->start();
  }
}

void Service::metrics_loop() {
  // Scrapes are rare and the payload is small, so one connection at a
  // time, answered inline, is plenty — and keeps the endpoint from ever
  // competing with job traffic for threads.
  while (!core_.stopping.load()) {
    Socket socket;
    try {
      socket = metrics_listener_.accept_connection();
    } catch (const SocketError&) {
      if (core_.stopping.load()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (!socket.valid()) break;  // listener shut down
    if (core_.stopping.load()) break;
    try {
      // Drain the request head; the path is irrelevant — every GET gets
      // the exposition.
      LineReader reader(&socket, 64 * 1024);
      std::string line;
      while (reader.read_line(&line)) {
        if (line.empty() || line == "\r") break;
      }
      const std::string body = core_.registry.exposition();
      std::string response =
          "HTTP/1.0 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " +
          std::to_string(body.size()) +
          "\r\n"
          "Connection: close\r\n\r\n" +
          body;
      socket.send_all(response);
    } catch (const SocketError&) {
      // A half-closed scraper is its problem, not the daemon's.
    }
  }
}

void Service::accept_loop() {
  while (!core_.stopping.load()) {
    Socket socket;
    try {
      socket = listener_.accept_connection();
    } catch (const SocketError& e) {
      // An unexpected accept() errno must not tear the daemon down: a
      // deaf-but-logged retry loop beats a silently dead service.  The
      // transient family (EINTR, ECONNABORTED, resource pressure, the
      // network-error batch) is already retried inside
      // accept_connection; this is the catch-all above it.
      if (core_.stopping.load()) break;
      std::fprintf(stderr, "dvsd: accept failed: %s (retrying)\n",
                   e.what());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (!socket.valid()) break;  // listener shut down
    if (core_.stopping.load()) break;
    core_.metrics.connections_total->inc();
    if (core_.config.verbose)
      std::fprintf(stderr, "dvsd: connection #%llu\n",
                   static_cast<unsigned long long>(
                       core_.metrics.connections_total->value()));
    std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_finished_locked();
    Connection conn;
    conn.session = std::make_unique<Session>(&core_, std::move(socket));
    Session* session = conn.session.get();
    conn.thread = std::thread([session] { session->run(); });
    connections_.push_back(std::move(conn));
  }
}

void Service::reap_finished_locked() {
  std::erase_if(connections_, [](Connection& conn) {
    if (!conn.session->finished()) return false;
    conn.thread.join();
    return true;
  });
}

void Service::request_stop() {
  // Called from session threads, other threads, or a signal handler:
  // only async-signal-safe work here (atomics and shutdown()).
  if (core_.stopping.exchange(true)) return;
  listener_.shutdown_listener();
  metrics_listener_.shutdown_listener();
  if (agent_) agent_->request_stop();  // atomics + shutdown(): still safe
}

void Service::wait() {
  // Polls the stop flag instead of waiting on a condition variable:
  // request_stop() must stay async-signal-safe, so it cannot notify.
  // Each tick also reaps finished sessions, so an idle daemon releases
  // dead connections' threads and fds without needing a new accept.
  while (!core_.stopping.load()) {
    {
      std::unique_lock<std::mutex> lock(stop_mutex_);
      if (stopped_) return;
      stop_cv_.wait_for(lock, std::chrono::milliseconds(100));
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_finished_locked();
  }
}

void Service::stop() {
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  // Leave the fleet first: the agent finishes (and answers) its leased
  // jobs, so a scheduler shutting down never strands work it accepted.
  if (agent_) agent_->stop();
  // Stop granting leases before draining sessions: in-flight dispatches
  // get kCancelled and fall back to local execution, so every busy
  // session below can still answer its request.
  if (core_.scheduler) core_.scheduler->begin_drain();
  // Refuse new design-session verbs (close_design keeps working) so the
  // drain window below is spent finishing work, not accepting more; the
  // surviving handles are force-closed once the sessions are gone.
  if (core_.designs) core_.designs->begin_drain();
  // Graceful drain: idle sessions are unblocked immediately, busy ones
  // get to finish — and answer — their in-flight request (a mid-batch
  // client receives every item and the batch_done).  Only stragglers
  // that outlive the drain budget have their sockets forced shut.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (Connection& conn : connections_) conn.session->request_drain();
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(core_.config.drain_timeout_ms);
  for (;;) {
    bool all_finished = true;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      for (Connection& conn : connections_)
        if (!conn.session->finished()) {
          all_finished = false;
          break;
        }
    }
    if (all_finished || std::chrono::steady_clock::now() >= deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (Connection& conn : connections_) conn.session->shutdown();
    // Sessions wait for their in-flight pool work before exiting, so
    // joining them also drains every job this service submitted.
    for (Connection& conn : connections_)
      if (conn.thread.joinable()) conn.thread.join();
    connections_.clear();
  }
  // Every connection is gone, so no design verb can be in flight: free
  // the handles clients did not close within the drain window.
  if (core_.designs) core_.designs->close_all();
  // Sessions are gone but fire-and-forget pool work may linger; the
  // scheduler's sweeper and the metrics collector read pool stats until
  // the core is torn down, so quiesce the pool before stopping them.
  if (core_.pool) core_.pool->wait_idle();
  if (core_.scheduler) core_.scheduler->stop();
  // Every job has finished; persist what the write-behind queue holds
  // so the next daemon run warm-starts from this one's work.
  if (core_.disk) core_.disk->flush();
  {
    std::lock_guard<std::mutex> stop_lock(stop_mutex_);
    stopped_ = true;
  }
  stop_cv_.notify_all();
}

}  // namespace dvs
