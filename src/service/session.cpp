#include "service/session.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/boundary.hpp"
#include "core/job.hpp"
#include "netlist/blif.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "opt/pipeline.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/version.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace dvs {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Slow-request stderr line and NDJSON trace-log record for one finished
/// request (optimize, reoptimize or batch item).
void emit_trace_record(ServiceCore& core, const char* type, const Json& id,
                       const std::string& name, const char* cache,
                       double wall_ms, const RequestTrace& trace) {
  if (core.config.slow_ms > 0 && wall_ms >= core.config.slow_ms)
    std::fprintf(stderr, "dvsd: slow %s '%s': %.1f ms (cache=%s)\n", type,
                 name.c_str(), wall_ms, cache);
  if (core.trace_log) {
    Json::Object record;
    record["type"] = Json(type);
    record["id"] = id;
    record["name"] = Json(name);
    record["cache"] = Json(cache);
    record["wall_ms"] = Json(wall_ms);
    record["spans"] = trace.json();
    core.trace_log->write(Json(std::move(record)));
  }
}

bool fully_mapped(const Network& net) {
  bool mapped = true;
  net.for_each_gate([&](const Node& n) {
    if (n.cell < 0) mapped = false;
  });
  return mapped;
}

std::string overloaded_message(const ServiceCore& core) {
  return "overloaded: " +
         std::to_string(static_cast<std::uint64_t>(
             core.metrics.inflight_jobs->value())) +
         " jobs in flight at watermark " +
         std::to_string(core.backlog_watermark) +
         "; retry later or lower the request rate";
}

std::string deadline_message(std::uint64_t deadline_ms) {
  return "deadline of " + std::to_string(deadline_ms) +
         " ms expired before the job was dequeued";
}

/// Response line for a design-session verb: head + the registry's body
/// fields.
std::string design_response(const char* type, const Json& id,
                            Json::Object body) {
  Json::Object head = response_head(type, id);
  for (auto& [key, value] : body) head[key] = std::move(value);
  return finish_response(std::move(head));
}

/// The dequeue step every pool job starts with: observes the wait since
/// `queued` (the histogram, and the trace's queue_wait phase) and reports
/// whether the job's deadline, counted from `since`, expired in the
/// queue — a job whose budget burned away there fails fast instead of
/// occupying a worker late.
bool expired_at_dequeue(ServiceCore& core, Clock::time_point queued,
                        RequestTrace* trace, std::uint64_t deadline_ms,
                        Clock::time_point since) {
  const Clock::time_point dequeued = Clock::now();
  core.metrics.queue_wait_ms->observe(ms_between(queued, dequeued));
  if (trace) trace->phase("queue_wait", dequeued);
  if (deadline_ms == 0 || ms_between(since, dequeued) <= deadline_ms)
    return false;
  core.metrics.deadline_expired->inc();
  return true;
}

/// Runs the job's cells and assembles the response body object.
std::string compute_body(const OptimizeRequest& request, ResolvedJob& job,
                         RequestTrace* trace) {
  const Network& net = job.network(trace);
  const Library& lib = job.library();
  const PipelineJobResult result = run_pipeline_job(
      net, lib, request.options.to_flow_options(),
      job.circuit_seed, request.specs,
      /*capture_designs=*/request.return_netlist);
  Json::Object body = pipeline_body_object(result, trace);

  if (request.return_netlist) {
    // Exactly one cell ran (protocol invariant): its final Design is
    // the netlist the client asked back.
    const Design& design = *result.cells.front().design;
    std::vector<char> low_mask;
    const Network out = materialize_level_converters(design, &low_mask);
    body["netlist"] = Json(request.format == "verilog"
                               ? write_verilog_string(out, lib)
                               : write_blif_string(out));
    Json::Array low_gates;
    out.for_each_gate([&](const Node& n) {
      if (low_mask[n.id]) low_gates.emplace_back(n.name);
    });
    body["low_gates"] = Json(std::move(low_gates));
  }
  return Json(std::move(body)).dump();
}

/// The resolver's name lookup: a named circuit's descriptor, or the
/// protocol's unknown-circuit error.
const McncDescriptor& named_circuit(const std::string& name) {
  const McncDescriptor* descriptor = find_mcnc(name);
  if (descriptor == nullptr)
    throw ProtocolError("unknown MCNC circuit '" + name + "'");
  return *descriptor;
}

/// An inline netlist's text, read in its format against the effective
/// library; `memo` (may be null) counts the parse.
Network parse_inline(const CircuitSource& source, const Library& lib,
                     KeyMemo* memo) {
  if (memo) memo->count_parse();
  return source.format == "verilog" ? read_verilog_string(source.netlist, lib)
                                    : read_blif_string(source.netlist);
}

/// Keeps a parsed inline netlist for network(): one sent fully mapped is
/// used as sent, any other is swept and mapped there.
void adopt(ResolvedJob& job, Network submitted) {
  if (fully_mapped(submitted) && submitted.num_gates() > 0)
    job.mapped.emplace(std::move(submitted));
  else
    job.unmapped.emplace(std::move(submitted));
}

/// A pipeline reoptimize: the design's snapshot through the stateless job
/// path, exactly as a stateless optimize of this network would run.
OptimizeOutcome run_snapshot(ServiceCore& core, DesignSnapshot& snapshot,
                             const ReoptimizeRequest& request,
                             RequestTrace* trace) {
  OptimizeRequest synth;
  synth.options = snapshot.options;
  synth.specs = request.specs;
  synth.use_cache = request.use_cache;
  ResolvedJob& job = snapshot.job;
  // Content-addressed, not handle-addressed: the key hashes what the
  // network IS (topology + mapping), not which handle or how many edits
  // produced it, so identical states share cache entries across handles,
  // daemon restarts, and the stateless optimize path (DESIGN.md).
  // Mapping is rehashed every time — set_cell edits move it without
  // bumping the structural version.
  job.key.topology = topology_hash(*job.mapped);
  job.key.mapping = mapping_fingerprint(*job.mapped);
  // A snapshot has no circuit name or netlist text to send a worker.
  return execute_job(core, synth, job, trace, /*allow_remote=*/false);
}

}  // namespace

const Library& ResolvedJob::library() {
  if (!custom_ladder) return *base_lib;
  if (!custom_lib) {
    custom_lib.emplace(*base_lib);
    custom_lib->set_supply_ladder(*custom_ladder);
  }
  return *custom_lib;
}

const Network& ResolvedJob::network(RequestTrace* trace) {
  if (mapped) return *mapped;
  if (descriptor)
    return mapped.emplace(build_mcnc_circuit(library(), *descriptor));
  if (unparsed) {
    // The memo supplied the key parts; this is the text's one parse.
    const Clock::time_point start = Clock::now();
    adopt(*this, parse_inline(*unparsed, library(), memo));
    unparsed = nullptr;
    if (trace) trace->add("parse_netlist", start, Clock::now(), /*depth=*/1);
    if (mapped) return *mapped;
  }
  DVS_EXPECTS(unmapped.has_value());
  const Clock::time_point start = Clock::now();
  sweep_network(*unmapped);
  Network net = map_paper_setup(*unmapped, library()).mapped;
  if (trace) trace->add("map", start, Clock::now(), /*depth=*/1);
  if (net.num_gates() == 0)
    throw ProtocolError("netlist has no gates to optimize");
  unmapped.reset();
  return mapped.emplace(std::move(net));
}

ResolvedJob resolve_job(const CircuitSource& source, const Library& lib,
                        KeyMemo* memo) {
  const auto memoized = [memo](const std::string& slot,
                               const auto& compute) {
    return memo ? memo->get(slot, compute) : compute();
  };
  ResolvedJob job;
  job.base_lib = &lib;
  // The whole flow (mapping included) runs against the requested
  // operating point; the effective library's fingerprint carries the
  // ladder into the cache key.  Building the adjusted copy (once per
  // ladder, with a memo) also vets the ladder against the library's
  // threshold voltage.
  std::uint64_t ladder_fp = lib.supplies().fingerprint();
  if (!source.options.supplies.empty()) {
    SupplyLadder ladder(source.options.supplies);
    if (ladder != lib.supplies()) {
      ladder_fp = ladder.fingerprint();
      job.custom_ladder.emplace(std::move(ladder));
    }
  }
  job.key.library = memoized("ladder " + std::to_string(ladder_fp), [&] {
                      return CacheKey{.library = job.library().fingerprint()};
                    }).library;
  if (!source.circuit.empty()) {
    job.descriptor = &named_circuit(source.circuit);
    // The suite engine's seed derivation, so daemon answers match
    // suite_bench rows bit for bit.
    job.circuit_seed = mix_seed(source.options.seed, job.descriptor->seed);
    // A named circuit is a pure function of (descriptor, effective
    // library): its hashes are memoized per pair, and the cache-hit fast
    // path skips the generator entirely.
    const CacheKey parts = memoized(
        source.circuit + "@" + std::to_string(job.key.library), [&] {
          const Network& net = job.network();
          return CacheKey{.topology = topology_hash(net),
                          .mapping = mapping_fingerprint(net)};
        });
    job.key.topology = parts.topology;
    job.key.mapping = parts.mapping;
    return job;
  }
  job.circuit_seed = source.options.seed;
  const bool verilog = source.format == "verilog";
  if (memo) {
    // A text the memo knows keeps its key parts there: the job keeps the
    // request's text, and only network(), which a cache hit never calls,
    // parses it.
    if (const std::optional<CacheKey> parts =
            memo->find_inline(source.netlist, verilog, job.key.library)) {
      job.key.topology = parts->topology;
      job.key.mapping = parts->mapping;
      job.unparsed = &source;
      job.memo = memo;
      return job;
    }
  }
  Network submitted = parse_inline(source, job.library(), memo);
  // Hash what the client sent; whether we must map it is derived state,
  // captured by the mapping fingerprint.  Mapping waits for network(),
  // which only a miss computed here calls.
  job.key.topology = topology_hash(submitted);
  job.key.mapping = mapping_fingerprint(submitted);
  if (memo)
    memo->put_inline(source.netlist, verilog, job.key.library, job.key);
  adopt(job, std::move(submitted));
  return job;
}

Json::Object pipeline_body_object(const PipelineJobResult& result,
                                  RequestTrace* trace) {
  if (trace) {
    // Depth-1 detail spans inside the execute phase: one per executed
    // pass, named after its cell so hybrid pipelines stay readable.
    for (const JobCellResult& cell : result.cells)
      for (const PassStats& stats : cell.run.passes)
        trace->add("pass:" + cell.label + "/" + stats.pass, stats.wall_start,
                   stats.wall_end, /*depth=*/1);
  }

  bool with_cvs = false, with_dscale = false, with_gscale = false;
  for (const JobCellResult& cell : result.cells) {
    with_cvs |= cell.label == "cvs";
    with_dscale |= cell.label == "dscale";
    with_gscale |= cell.label == "gscale";
  }

  Json::Object body;
  body["report"] =
      report_json(result.row, with_cvs, with_dscale, with_gscale);
  Json::Object metrics;
  Json::Array trajectory;
  for (const JobCellResult& cell : result.cells) {
    // The final power/delay/area: the trajectory's last point.
    const PassStats& last = cell.run.passes.back();
    Json::Object final_point;
    final_point["power_uw"] = Json(last.power_uw);
    final_point["arrival_ns"] = Json(last.arrival_ns);
    final_point["area_um2"] = Json(last.area_um2);
    metrics[cell.label] = Json(std::move(final_point));
    Json::Object entry;
    entry["label"] = Json(cell.label);
    entry["spec"] = Json(cell.spec);
    entry["improve_pct"] = Json(cell.improve_pct);
    Json::Array passes;
    for (const PassStats& stats : cell.run.passes)
      passes.emplace_back(pass_stats_json(stats));
    entry["passes"] = Json(std::move(passes));
    trajectory.emplace_back(std::move(entry));
  }
  body["metrics"] = Json(std::move(metrics));
  body["trajectory"] = Json(std::move(trajectory));
  return body;
}

const char* cache_tier_name(OptimizeOutcome::Tier tier) {
  switch (tier) {
    case OptimizeOutcome::Tier::kMemory:
      return "hit";
    case OptimizeOutcome::Tier::kDisk:
      return "disk";
    case OptimizeOutcome::Tier::kMiss:
      break;
  }
  return "miss";
}

OptimizeOutcome execute_job(ServiceCore& core, const OptimizeRequest& request,
                            ResolvedJob& job, RequestTrace* trace,
                            bool allow_remote) {
  job.key.options = fnv1a64(
      canonical_job_json(request, job.circuit_seed, core.lib->supplies()));
  const Clock::time_point resolved = Clock::now();
  if (trace) trace->phase("resolve", resolved);
  if (request.use_cache) {
    OptimizeOutcome hit;
    hit.body = core.cache->get(job.key);
    hit.tier = OptimizeOutcome::Tier::kMemory;
    Clock::time_point t = Clock::now();
    core.metrics.cache_lookup_memory_ms->observe(ms_between(resolved, t));
    if (!hit.body && core.disk) {
      hit.body = core.disk->load(job.key);
      hit.tier = OptimizeOutcome::Tier::kDisk;
      const Clock::time_point loaded = Clock::now();
      core.metrics.cache_lookup_disk_ms->observe(ms_between(t, loaded));
      t = loaded;
      if (hit.body) {
        // Promote-on-hit: the disk answer becomes resident so repeats
        // pay memory-tier latency (no disk write — it is already there).
        core.cache->put(job.key, hit.body);
        t = Clock::now();
      }
    }
    if (trace) trace->phase("cache_lookup", t);
    if (hit.body) return hit;
  }
  // An explicit cache bypass still warms both tiers below; only the
  // lookups are skipped.
  OptimizeOutcome outcome;
  if (allow_remote && core.scheduler && core.scheduler->has_workers()) {
    // Fleet dispatch first; any fleet-side failure (no worker, lease
    // expiry, retries exhausted, drain) returns nullopt and the job
    // computes locally below — workers and the fleet path produce
    // bit-identical bodies, so either way the cache sees the same bytes.
    std::optional<Scheduler::RemoteResult> remote =
        core.scheduler->run_remote(request, trace);
    if (remote) {
      outcome.body =
          std::make_shared<const std::string>(std::move(remote->body));
      outcome.executor = std::move(remote->worker);
    }
  }
  if (!outcome.body)
    outcome.body = std::make_shared<const std::string>(
        compute_body(request, job, trace));
  if (trace) trace->phase("execute");
  core.cache->put(job.key, outcome.body);
  if (core.disk) core.disk->store(job.key, outcome.body);
  if (trace) trace->phase("store");
  return outcome;
}

OptimizeOutcome execute_optimize(ServiceCore& core,
                                 const OptimizeRequest& request,
                                 RequestTrace* trace, bool allow_remote) {
  ResolvedJob job = resolve_job(request, *core.lib, &*core.memo);
  return execute_job(core, request, job, trace, allow_remote);
}

Session::Session(ServiceCore* core, Socket socket)
    : core_(core), socket_(std::move(socket)) {}

void Session::shutdown() { socket_.shutdown_both(); }

void Session::request_drain() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  draining_ = true;
  // Idle sessions (blocked in recv) unblock now; a busy one finishes
  // and answers its in-flight request first — run() checks draining_
  // after clearing busy_ under this same mutex, so no request can slip
  // into the gap.
  if (!busy_) socket_.shutdown_both();
}

void Session::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  socket_.send_all(line);
}

void Session::run() {
  core_->metrics.sessions_active->add(1);
  LineReader reader(&socket_, core_->config.max_line_bytes);
  std::string line;
  try {
    while (!core_->stopping.load()) {
      try {
        if (!reader.read_line(&line)) break;  // EOF
      } catch (const LineTooLongError& e) {
        // Tell the client why before dropping the connection (the
        // unread remainder of the oversized line makes resync
        // impossible, so the error-containment contract ends here).
        core_->metrics.line_too_long->inc();
        write_line(error_response(Json(), e.what(), "line_too_long"));
        break;
      }
      if (line.empty()) continue;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (draining_) break;
        busy_ = true;
      }
      const bool is_shutdown = serve_line(line);
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        busy_ = false;
        if (draining_) break;
      }
      if (is_shutdown) break;
      if (worker_mode_) {
        // The connection becomes a fleet worker channel: the scheduler
        // owns it from here (ack, heartbeats, job results) until the
        // worker disconnects or the fleet drains.  busy_ stays false,
        // so a graceful drain shuts this socket immediately — worker
        // channels don't hold the drain window open.
        core_->scheduler->serve_worker(worker_info_, this, &reader);
        break;
      }
    }
  } catch (const SocketError&) {
    // Peer vanished or service stop shut the socket down: just leave.
  }
  // The fd itself is reclaimed when the server reaps this session; the
  // shutdown gives the client its EOF *now* instead of at reap time.
  socket_.shutdown_both();
  core_->metrics.sessions_active->add(-1);
  finished_.store(true);
}

bool Session::serve_line(const std::string& line) {
  const auto received = std::chrono::steady_clock::now();
  core_->metrics.requests_total->inc();
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    write_line(error_response(Json(), e.what()));
    return false;
  }
  const auto parsed = std::chrono::steady_clock::now();
  try {
    handle(request, received, parsed);
  } catch (const ProtocolError& e) {
    core_->metrics.jobs_failed->inc();
    write_line(error_response(request.id, e.what(), e.code()));
  } catch (const std::exception& e) {
    core_->metrics.jobs_failed->inc();
    write_line(error_response(request.id, e.what()));
  }
  return request.type == RequestType::kShutdown;
}

void Session::handle(const Request& request, Clock::time_point received,
                     Clock::time_point parsed) {
  switch (request.type) {
    case RequestType::kPing:
      write_line(finish_response(response_head("pong", request.id)));
      break;
    case RequestType::kStats:
      handle_stats(request);
      break;
    case RequestType::kMetrics:
      handle_metrics(request);
      break;
    case RequestType::kShutdown:
      write_line(finish_response(response_head("bye", request.id)));
      core_->request_stop();
      break;
    case RequestType::kOptimize:
    case RequestType::kOpenDesign:
    case RequestType::kReoptimize:
      handle_job(request, received, parsed);
      break;
    case RequestType::kBatch:
      handle_batch(request);
      break;
    case RequestType::kRegisterWorker:
      if (!core_->scheduler)
        throw ProtocolError(
            "not a scheduler: start dvsd with --scheduler to accept "
            "workers");
      // No ack here: serve_worker sends it once it owns the channel, so
      // the worker can't observe a registered-but-unowned window.
      worker_info_ = request.register_worker;
      worker_mode_ = true;
      break;
    case RequestType::kEdit:
    case RequestType::kSweep:
    case RequestType::kCloseDesign:
      handle_design(request, received);
      break;
  }
}

void Session::handle_metrics(const Request& request) {
  Json::Object fields = response_head("metrics", request.id);
  fields["text"] = Json(core_->registry.exposition());
  write_line(finish_response(std::move(fields)));
}

void Session::handle_stats(const Request& request) {
  const CacheStats cache = core_->cache->stats();
  Json::Object fields = response_head("stats", request.id);
  Json::Object cache_json;
  cache_json["hits"] = Json(cache.hits);
  cache_json["misses"] = Json(cache.misses);
  cache_json["evictions"] = Json(cache.evictions);
  cache_json["rejected"] = Json(cache.rejected);
  cache_json["entries"] = Json(static_cast<std::uint64_t>(cache.entries));
  cache_json["bytes"] = Json(static_cast<std::uint64_t>(cache.bytes));
  cache_json["capacity_bytes"] =
      Json(static_cast<std::uint64_t>(cache.capacity_bytes));
  fields["cache"] = Json(std::move(cache_json));
  Json::Object disk_json;
  disk_json["enabled"] = Json(static_cast<bool>(core_->disk));
  const DiskCacheStats disk =
      core_->disk ? core_->disk->stats() : DiskCacheStats{};
  disk_json["hits"] = Json(disk.hits);
  disk_json["misses"] = Json(disk.misses);
  disk_json["writes"] = Json(disk.writes);
  disk_json["write_errors"] = Json(disk.write_errors);
  disk_json["bytes_written"] = Json(disk.bytes_written);
  fields["disk"] = Json(std::move(disk_json));
  const ServiceMetrics& m = core_->metrics;
  const ThreadPoolStats pool_stats = core_->pool->stats();
  Json::Object pool;
  pool["threads"] = Json(pool_stats.threads);
  pool["depth"] = Json(pool_stats.pending);
  pool["peak_depth"] = Json(pool_stats.peak_pending);
  pool["tasks_executed"] = Json(pool_stats.tasks_executed);
  pool["inflight"] =
      Json(static_cast<std::uint64_t>(m.inflight_jobs->value()));
  pool["watermark"] =
      Json(static_cast<std::uint64_t>(core_->backlog_watermark));
  pool["overload_rejections"] = Json(m.overload_rejections->value());
  pool["deadline_expired"] = Json(m.deadline_expired->value());
  fields["pool"] = Json(std::move(pool));
  Json::Object sessions;
  sessions["active"] =
      Json(static_cast<std::uint64_t>(m.sessions_active->value()));
  sessions["total"] = Json(m.connections_total->value());
  sessions["line_too_long"] = Json(m.line_too_long->value());
  fields["sessions"] = Json(std::move(sessions));
  Json::Object jobs;
  jobs["completed"] = Json(m.jobs_completed->value());
  jobs["failed"] = Json(m.jobs_failed->value());
  fields["jobs"] = Json(std::move(jobs));
  const KeyMemoStats memo = core_->memo->stats();
  Json::Object resolver;
  resolver["inline_parses"] = Json(memo.inline_parses);
  resolver["memo_hits"] = Json(memo.hits);
  resolver["memo_entries"] = Json(static_cast<std::uint64_t>(memo.entries));
  resolver["memo_bytes"] = Json(static_cast<std::uint64_t>(memo.bytes));
  fields["resolver"] = Json(std::move(resolver));
  if (core_->designs) {
    const DesignRegistryStats d = core_->designs->stats();
    Json::Object designs;
    designs["open"] = Json(static_cast<std::uint64_t>(d.open_now));
    designs["resident_bytes"] =
        Json(static_cast<std::uint64_t>(d.resident_bytes));
    designs["opened"] = Json(d.opened);
    designs["closed"] = Json(d.closed);
    designs["expired"] = Json(d.expired);
    designs["evicted"] = Json(d.evicted);
    designs["edits"] = Json(d.edits);
    designs["reoptimize_incremental"] = Json(d.reoptimize_incremental);
    designs["reoptimize_full"] = Json(d.reoptimize_full);
    designs["sweeps"] = Json(d.sweeps);
    designs["sweep_cells"] = Json(d.sweep_cells);
    fields["designs"] = Json(std::move(designs));
  }
  if (core_->scheduler) fields["fleet"] = core_->scheduler->stats_json();
  // `requests` predates `requests_total`; both stay so old tooling keeps
  // working, and `requests_total` is the documented monotonic spelling
  // (a restart is visible as the counter falling together with uptime).
  fields["requests"] = Json(m.requests_total->value());
  fields["requests_total"] = Json(m.requests_total->value());
  fields["connections"] = Json(m.connections_total->value());
  fields["threads"] = Json(pool_stats.threads);
  fields["version"] = Json(kDvsVersion);
  const double uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    core_->started)
          .count();
  fields["uptime_seconds"] = Json(uptime_seconds);
  fields["uptime_ms"] = Json(uptime_seconds * 1e3);
  write_line(finish_response(std::move(fields)));
}

bool Session::admit(const Json& id) {
  if (core_->admit()) return true;
  core_->metrics.overload_rejections->inc();
  write_line(error_response(id, overloaded_message(*core_), "overloaded"));
  return false;
}

std::optional<Session::JobReply> Session::run_pool_job(
    const Json& id, Clock::time_point received, std::uint64_t deadline_ms,
    RequestTrace* trace, const std::function<JobReply()>& run) {
  if (!admit(id)) return std::nullopt;
  const Clock::time_point admitted = Clock::now();
  if (trace) trace->phase("admission", admitted);
  // The job runs on the shared pool so connections share the worker
  // budget; this thread waits for it, so `run` may use the caller's
  // frame.  An error comes back as plain strings: the exception object
  // stays on the pool thread that threw it.
  struct Done {
    std::optional<JobReply> reply;
    std::string error;
    std::string code;
  };
  auto done = std::make_shared<std::promise<Done>>();
  std::future<Done> future = done->get_future();
  ServiceCore* core = core_;
  core->metrics.inflight_jobs->add(1);
  core->pool->submit([core, done, &run, received, admitted, deadline_ms,
                      trace] {
    Done out;
    if (expired_at_dequeue(*core, admitted, trace, deadline_ms, received)) {
      out.error = deadline_message(deadline_ms);
      out.code = "deadline_exceeded";
    } else {
      try {
        out.reply = run();
      } catch (const ProtocolError& e) {
        out.error = e.what();
        out.code = e.code();
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    }
    core->metrics.inflight_jobs->add(-1);
    done->set_value(std::move(out));
  });
  Done out = future.get();
  if (!out.reply) throw ProtocolError(out.error, out.code);
  core_->metrics.jobs_completed->inc();
  return std::move(out.reply);
}

void Session::handle_job(const Request& request, Clock::time_point received,
                         Clock::time_point parsed) {
  const bool optimize = request.type == RequestType::kOptimize;
  const bool open = request.type == RequestType::kOpenDesign;
  const bool wire_trace =
      optimize ? request.optimize.trace : !open && request.reoptimize.trace;
  // The trace epoch is the moment the request line arrived and the last
  // phase ends where wall_ms is read, so the phases tile the reported
  // wall time by construction.  open_design is never traced.
  std::optional<RequestTrace> trace;
  if (!open && core_->want_trace(wire_trace)) {
    trace.emplace(received);
    trace->phase("parse", parsed);
  }
  RequestTrace* const spans = trace ? &*trace : nullptr;
  DesignRegistry& designs = *core_->designs;
  std::optional<JobReply> reply = run_pool_job(
      request.id, received, optimize ? request.optimize.deadline_ms : 0,
      spans, [&]() -> JobReply {
        if (optimize)
          return {{}, execute_optimize(*core_, request.optimize, spans)};
        if (open) return {designs.open(request.open_design), {}};
        DesignReoptimizeResult result =
            designs.reoptimize(request.reoptimize, spans);
        JobReply out{std::move(result.fields), {}};
        if (result.snapshot)
          out.outcome = run_snapshot(*core_, *result.snapshot,
                                     request.reoptimize, spans);
        return out;
      });
  if (!reply) return;

  const Clock::time_point done = Clock::now();
  if (trace) trace->phase("respond", done);
  const double wall_ms = ms_between(received, done);
  (optimize ? core_->metrics.service_ms_optimize
            : core_->metrics.service_ms_design)
      ->observe(wall_ms);
  Json::Object head = response_head(
      optimize ? "result" : open ? "design_opened" : "reoptimized",
      request.id);
  for (auto& [key, value] : reply->fields) head[key] = std::move(value);
  const OptimizeOutcome& outcome = reply->outcome;
  const char* cache = outcome.body ? cache_tier_name(outcome.tier) : "none";
  if (outcome.body) head["cache"] = Json(cache);
  if (!outcome.executor.empty()) head["executor"] = Json(outcome.executor);
  head["wall_ms"] = Json(wall_ms);
  if (trace && wire_trace) head["trace"] = trace->json();
  write_line(outcome.body
                 ? finish_response_with_body(std::move(head), *outcome.body)
                 : finish_response(std::move(head)));
  if (trace) {
    const std::string& circuit = request.optimize.circuit;
    emit_trace_record(*core_, optimize ? "optimize" : "reoptimize",
                      request.id,
                      !optimize          ? request.reoptimize.design
                      : circuit.empty() ? std::string("<inline>")
                                        : circuit,
                      cache, wall_ms, *trace);
  }
}

void Session::handle_design(const Request& request,
                            Clock::time_point received) {
  DesignRegistry& designs = *core_->designs;
  const Json& id = request.id;

  // Lightweight verbs (point edits, handle release) answer inline on
  // this thread — they are ms-scale and must stay responsive even when
  // the pool is saturated with long jobs.
  if (request.type == RequestType::kEdit) {
    Json::Object fields = designs.edit(request.edit);
    write_line(design_response("edited", id, std::move(fields)));
    core_->metrics.service_ms_design->observe(ms_since(received));
    return;
  }
  if (request.type == RequestType::kCloseDesign) {
    Json::Object fields = designs.close(request.close_design);
    write_line(design_response("design_closed", id, std::move(fields)));
    core_->metrics.service_ms_design->observe(ms_since(received));
    return;
  }

  // Sweep is orchestrated inline: the grid's cells fan out on the pool
  // while this session thread waits in parallel_for for those cells
  // only — never a pool worker, so even a single-threaded pool cannot
  // deadlock on its own sweep.
  if (!admit(id)) return;
  core_->metrics.inflight_jobs->add(1);
  Json::Object fields;
  try {
    fields = designs.sweep(request.sweep);
  } catch (...) {
    core_->metrics.inflight_jobs->add(-1);
    throw;
  }
  core_->metrics.inflight_jobs->add(-1);
  core_->metrics.jobs_completed->inc();
  const double wall_ms = ms_since(received);
  fields["wall_ms"] = Json(wall_ms);
  write_line(design_response("sweep_result", id, std::move(fields)));
  core_->metrics.service_ms_design->observe(wall_ms);
}

void Session::handle_batch(const Request& request) {
  const Clock::time_point start = Clock::now();
  const BatchRequest& batch = request.batch;
  if (!admit(request.id)) return;

  // Materialize the circuit list (validated up front so a typo fails the
  // whole batch immediately instead of mid-stream).
  std::vector<std::string> names;
  if (batch.all) {
    for (const McncDescriptor& d : mcnc_suite())
      if (batch.max_gates == 0 || d.gates <= batch.max_gates)
        names.push_back(d.name);
  } else {
    for (const std::string& name : batch.circuits) {
      named_circuit(name);
      names.push_back(name);
    }
  }

  struct BatchProgress {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t completed = 0;   // items fully handled (answer written)
    std::size_t in_window = 0;   // items submitted, not yet completed
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> failed{0};
  };
  auto progress = std::make_shared<BatchProgress>();
  const std::size_t window =
      std::max<std::size_t>(1, core_->config.max_inflight_per_connection);

  ServiceCore* core = core_;
  const std::uint64_t deadline_ms = batch.deadline_ms;
  const bool tracing = core_->want_trace(batch.trace);
  const bool wire_trace = batch.trace;
  const auto submit_item = [&](std::size_t i) {
    OptimizeRequest item;
    item.circuit = names[i];
    item.specs = batch.specs;
    item.options = batch.options;
    item.use_cache = batch.use_cache;
    core_->metrics.inflight_jobs->add(1);
    const Clock::time_point submitted = Clock::now();
    core_->pool->submit([this, core, progress, item, i, start, submitted,
                         deadline_ms, tracing, wire_trace,
                         id = request.id]() {
      // Each item's trace epoch — and its wall_ms — is its submission
      // time, so the item's phases tile its wall time even though items
      // stream back out of order.
      std::optional<RequestTrace> trace;
      if (tracing) trace.emplace(submitted);
      RequestTrace* const spans = trace ? &*trace : nullptr;
      const auto head = [&] {
        Json::Object fields = response_head("batch_item", id);
        fields["index"] = Json(static_cast<std::uint64_t>(i));
        fields["name"] = Json(item.circuit);
        return fields;
      };
      std::string line;
      // The batch's per-item dequeue budget is measured from batch
      // arrival.
      if (expired_at_dequeue(*core, submitted, spans, deadline_ms, start)) {
        core->metrics.jobs_failed->inc();
        progress->failed.fetch_add(1);
        Json::Object fields = head();
        fields["error"] = Json(deadline_message(deadline_ms));
        fields["code"] = Json("deadline_exceeded");
        line = finish_response(std::move(fields));
      } else {
        try {
          const OptimizeOutcome outcome = execute_optimize(*core, item, spans);
          core->metrics.jobs_completed->inc();
          if (outcome.cache_hit()) progress->hits.fetch_add(1);
          const Clock::time_point done = Clock::now();
          if (trace) trace->phase("respond", done);
          const double wall_ms = ms_between(submitted, done);
          core->metrics.service_ms_batch_item->observe(wall_ms);
          Json::Object fields = head();
          fields["cache"] = Json(cache_tier_name(outcome.tier));
          if (!outcome.executor.empty())
            fields["executor"] = Json(outcome.executor);
          fields["wall_ms"] = Json(wall_ms);
          if (trace && wire_trace) fields["trace"] = trace->json();
          line =
              finish_response_with_body(std::move(fields), *outcome.body);
          if (trace)
            emit_trace_record(*core, "batch_item", id, item.circuit,
                              cache_tier_name(outcome.tier), wall_ms,
                              *trace);
        } catch (const std::exception& e) {
          core->metrics.jobs_failed->inc();
          progress->failed.fetch_add(1);
          Json::Object fields = head();
          fields["error"] = Json(e.what());
          line = finish_response(std::move(fields));
        }
      }
      try {
        write_line(line);
      } catch (const SocketError&) {
        // Client went away mid-stream; keep draining the batch.
      }
      core->metrics.inflight_jobs->add(-1);
      {
        std::lock_guard<std::mutex> lock(progress->mutex);
        ++progress->completed;
        --progress->in_window;
      }
      progress->cv.notify_one();
    });
  };

  // Windowed submission: at most `window` items of this batch occupy
  // the pool at once; the session thread feeds the next item in as one
  // completes.  One huge batch therefore shares the queue with other
  // connections instead of monopolizing it.
  std::size_t next = 0;
  std::unique_lock<std::mutex> lock(progress->mutex);
  while (progress->completed < names.size()) {
    while (next < names.size() && progress->in_window < window) {
      ++progress->in_window;
      lock.unlock();
      submit_item(next++);
      lock.lock();
    }
    progress->cv.wait(lock, [&] {
      return progress->completed == names.size() ||
             (next < names.size() && progress->in_window < window);
    });
  }
  lock.unlock();

  Json::Object fields = response_head("batch_done", request.id);
  fields["count"] = Json(static_cast<std::uint64_t>(names.size()));
  fields["cache_hits"] = Json(progress->hits.load());
  fields["failed"] = Json(progress->failed.load());
  fields["wall_ms"] = Json(ms_since(start));
  write_line(finish_response(std::move(fields)));
}

}  // namespace dvs
