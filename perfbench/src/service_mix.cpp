// service-mix: an in-process dvsd on loopback TCP, driven in a closed
// loop by a fixed number of connections (at most the core count, at
// most 4).  Each request is an `optimize` on an MCNC circuit of at most
// 1000 gates, named or sent as inline BLIF.  A seeded share repeats one
// of the connection's recent keys and must hit the memory cache; the
// rest carry a fresh options.seed, so they miss, compute and store.
// The memory tier is capped, so it evicts old keys and the daemon's
// footprint stops growing within a run; the disk tier stays off.  One
// operation is one request, timed at the client.
#include <algorithm>
#include <memory>
#include <thread>

#include "benchgen/mcnc.hpp"
#include "bench.hpp"
#include "cells.hpp"
#include "netlist/blif.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace perfbench {

namespace {

constexpr int kMaxGates = 1000;
constexpr double kRepeatShare = 0.8;
constexpr double kInlineShare = 0.2;
/// Repeats draw from the connection's most recent fresh keys.  All
/// connections' recent answers together stay far below the cache cap,
/// so a repeat always hits.
constexpr std::size_t kRecentKeys = 64;
constexpr std::size_t kCacheBytes = 4u << 20;
/// Every k-th fresh answer is kept for the local reference check, and at
/// most this many of those are recomputed after the window.
constexpr std::uint64_t kKeepEvery = 16;
constexpr std::size_t kReferenceChecks = 48;
const char* const kPhases[] = {"parse",        "admission", "queue_wait",
                               "resolve",      "cache_lookup", "execute",
                               "store",        "respond"};

int num_connections() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

struct MixInputs {
  std::unique_ptr<dvs::Library> lib;
  std::vector<const dvs::McncDescriptor*> circuits;
  std::vector<std::string> blif;  // inline form of each circuit
  std::unique_ptr<dvs::Service> service;  // after lib: uses it
  std::vector<dvs::Socket> sockets;       // closed first on teardown
};

std::unique_ptr<MixInputs> make_inputs() {
  auto in = std::make_unique<MixInputs>();
  in->lib = std::make_unique<dvs::Library>(dvs::build_compass_library());
  for (const dvs::McncDescriptor& d : dvs::mcnc_suite()) {
    if (d.gates > kMaxGates) continue;
    in->circuits.push_back(&d);
    in->blif.push_back(
        dvs::write_blif_string(dvs::build_mcnc_circuit(*in->lib, d)));
  }
  dvs::ServiceConfig config;
  config.tcp_port = 0;
  config.num_threads = num_connections();
  config.max_backlog = 64;
  config.cache_bytes = kCacheBytes;
  in->service = std::make_unique<dvs::Service>(config, in->lib.get());
  in->service->start();
  for (int c = 0; c < num_connections(); ++c)
    in->sockets.push_back(
        dvs::Socket::connect_tcp("127.0.0.1", in->service->port()));
  return in;
}

struct Key {
  std::size_t circuit = 0;
  bool inline_netlist = false;
  std::uint64_t seed = 0;
};

/// A fresh request's answer, kept for the reference check.
struct Fresh {
  Key key;
  dvs::Json report;
};

/// One connection's state across windows: its recent fresh keys and a
/// hash of the answer each got.
struct Connection {
  explicit Connection(std::uint64_t seed) : rng(seed) {}
  dvs::Rng rng;
  std::vector<Key> recent;                 // ring of kRecentKeys
  std::vector<std::uint64_t> answer_hash;  // aligned with recent
  std::uint64_t fresh_keys = 0;
};

/// What one connection saw in one window.
struct Tally {
  std::vector<double> latency_ms;
  std::vector<double> client_ms;      // latency minus the server's wall_ms
  std::map<std::string, std::vector<double>> phase_ms;  // "hit.parse", ...
  double span_ms = 0.0;               // depth-0 spans, summed
  double wall_ms = 0.0;               // server wall_ms, summed
  std::vector<Fresh> fresh;
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
};

std::string request_line(const MixInputs& in, const Key& key, bool trace) {
  dvs::Json::Object request;
  request["type"] = dvs::Json("optimize");
  if (key.inline_netlist)
    request["netlist"] = dvs::Json(in.blif[key.circuit]);
  else
    request["circuit"] = dvs::Json(in.circuits[key.circuit]->name);
  dvs::Json::Object options;
  options["seed"] = dvs::Json(key.seed);
  request["options"] = dvs::Json(std::move(options));
  if (trace) request["trace"] = dvs::Json(true);
  return dvs::Json(std::move(request)).dump() + "\n";
}

/// Closed loop on connection `c` until `deadline`.
void drive(MixInputs& in, int c, std::uint64_t seed, Clock::time_point deadline,
           bool trace, Connection& conn, Tally* tally) {
  dvs::Socket& socket = in.sockets[c];
  dvs::LineReader reader(&socket, 64u << 20);
  while (Clock::now() < deadline) {
    const bool repeat = !conn.recent.empty() && conn.rng.next_double() < kRepeatShare;
    std::size_t index = conn.fresh_keys % kRecentKeys;
    Key key;
    if (repeat) {
      index = conn.rng.next_below(conn.recent.size());
      key = conn.recent[index];
    } else {
      key.circuit = conn.rng.next_below(in.circuits.size());
      key.inline_netlist = conn.rng.next_double() < kInlineShare;
      key.seed = dvs::mix_seed(
          seed, (static_cast<std::uint64_t>(c + 1) << 32) | conn.fresh_keys);
    }
    const std::string line = request_line(in, key, trace);
    ++tally->attempted;
    const Clock::time_point t0 = Clock::now();
    std::string reply;
    socket.send_all(line);
    if (!reader.read_line(&reply)) {
      tally->failures.push_back("service-mix: connection closed by the daemon");
      return;
    }
    const double latency = ms_since(t0);
    dvs::Json response = dvs::Json::parse(reply);
    const dvs::Json* type = response.find("type");
    if (type == nullptr || type->as_string() != "result") {
      tally->failures.push_back("service-mix: non-result reply " + reply.substr(0, 200));
      continue;
    }
    tally->latency_ms.push_back(latency);
    const bool hit = response.find("cache")->as_string() == "hit";
    if (hit != repeat)
      tally->failures.push_back(std::string("service-mix: ") +
                                (repeat ? "a repeated key missed" : "a fresh key hit") +
                                " the cache");
    const double wall_ms = response.find("wall_ms")->as_double();
    tally->client_ms.push_back(latency - wall_ms);
    if (const dvs::Json* spans = response.find("trace")) {
      tally->wall_ms += wall_ms;
      for (const dvs::Json& span : spans->as_array()) {
        if (span.find("depth")->as_int() != 0) continue;
        const double dur = span.find("dur_ms")->as_double();
        tally->span_ms += dur;
        tally->phase_ms[(hit ? "hit." : "miss.") + span.find("name")->as_string()]
            .push_back(dur);
      }
    }
    // Every cell meets its constraint.
    const dvs::Json& report = *response.find("report");
    const double tspec = report.find("tspec_ns")->as_double();
    for (const char* algo : kPaperSpecs) {
      const double arrival =
          response.find("metrics")->find(algo)->find("arrival_ns")->as_double();
      if (!(arrival <= tspec + 1e-6))
        tally->failures.push_back("service-mix: " + report.find("name")->as_string() +
                                  " " + algo + " misses its timing constraint");
    }
    // A hit must answer exactly what the miss it repeats answered.
    auto& fields = response.as_object();
    for (const char* clock_field : {"id", "wall_ms", "cache", "trace"})
      fields.erase(clock_field);
    const std::uint64_t hash = dvs::fnv1a64(response.dump());
    if (repeat) {
      if (hash != conn.answer_hash[index])
        tally->failures.push_back("service-mix: a hit differs from the miss it repeats");
    } else {
      if (conn.fresh_keys % kKeepEvery == 0) tally->fresh.push_back({key, report});
      if (conn.recent.size() < kRecentKeys) {
        conn.recent.push_back(key);
        conn.answer_hash.push_back(hash);
      } else {
        conn.recent[index] = key;
        conn.answer_hash[index] = hash;
      }
      ++conn.fresh_keys;
    }
  }
}

/// Runs every connection for `seconds` and merges the tallies.
Tally run_window(MixInputs& in, std::uint64_t seed, double seconds, bool trace,
                 std::vector<Connection>& connections, double* wall_s) {
  const int n = static_cast<int>(in.sockets.size());
  std::vector<Tally> tallies(n);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c)
    threads.emplace_back([&, c] {
      try {
        drive(in, c, seed, deadline, trace, connections[c], &tallies[c]);
      } catch (const std::exception& e) {
        tallies[c].failures.push_back(std::string("service-mix: ") + e.what());
      }
    });
  for (std::thread& t : threads) t.join();
  *wall_s = ms_since(start) / 1e3;
  Tally all;
  for (Tally& t : tallies) {
    all.latency_ms.insert(all.latency_ms.end(), t.latency_ms.begin(), t.latency_ms.end());
    all.client_ms.insert(all.client_ms.end(), t.client_ms.begin(), t.client_ms.end());
    for (auto& [name, v] : t.phase_ms)
      all.phase_ms[name].insert(all.phase_ms[name].end(), v.begin(), v.end());
    all.span_ms += t.span_ms;
    all.wall_ms += t.wall_ms;
    std::move(t.fresh.begin(), t.fresh.end(), std::back_inserter(all.fresh));
    all.attempted += t.attempted;
    all.failures.insert(all.failures.end(), t.failures.begin(), t.failures.end());
  }
  return all;
}

void record(const Tally& tally, Outcome& out) {
  out.attempt(tally.attempted);
  for (const std::string& why : tally.failures) out.fail(why);
}

/// Recomputes an evenly spaced sample of fresh answers locally.
void check_reference(const MixInputs& in, const std::vector<Fresh>& fresh,
                     Outcome& out) {
  const std::size_t step = std::max<std::size_t>(1, fresh.size() / kReferenceChecks);
  for (std::size_t i = 0; i < fresh.size(); i += step) {
    const Key& key = fresh[i].key;
    const dvs::McncDescriptor& d = *in.circuits[key.circuit];
    dvs::Network mapped;
    std::uint64_t circuit_seed = key.seed;
    if (key.inline_netlist) {
      dvs::Network parsed = dvs::read_blif_string(in.blif[key.circuit]);
      dvs::sweep_network(parsed);
      mapped = dvs::map_paper_setup(parsed, *in.lib).mapped;
    } else {
      mapped = dvs::build_mcnc_circuit(*in.lib, d);
      circuit_seed = dvs::mix_seed(key.seed, d.seed);
    }
    const PaperCells cells = run_paper_cells(mapped, *in.lib, circuit_seed, nullptr);
    dvs::Json report = fresh[i].report;
    report.as_object()["gscale"].as_object().erase("seconds");
    out.attempt();
    out.check(report.dump() == comparable_row(cells.row).dump(),
              std::string("service-mix: ") + d.name +
                  (key.inline_netlist ? " (inline)" : "") +
                  " differs from the locally computed row");
  }
}

dvs::Json stats(MixInputs& in) {
  dvs::Socket& socket = in.sockets.front();
  dvs::LineReader reader(&socket, 64u << 20);
  socket.send_all("{\"type\":\"stats\"}\n");
  std::string line;
  if (!reader.read_line(&line)) throw std::runtime_error("no stats reply");
  return dvs::Json::parse(line);
}

}  // namespace

void run_service_mix(const Args& args, Outcome& out) {
  double setup_s = 0.0;
  const std::unique_ptr<MixInputs> in = repeated_setup(5, &setup_s, make_inputs);
  std::vector<Connection> connections;
  for (std::size_t c = 0; c < in->sockets.size(); ++c)
    connections.emplace_back(dvs::mix_seed(args.seed, 0x5e7 + c));

  double wall_s = 0.0;
  const Tally plain = run_window(*in, args.seed, args.trace ? args.seconds / 3 : args.seconds,
                                 false, connections, &wall_s);
  record(plain, out);

  if (!args.trace) {
    check_reference(*in, plain.fresh, out);
    out.set("setup_s", setup_s);
    set_latency_metrics(out, plain.latency_ms, wall_s);
    return;
  }

  const Tally traced =
      run_window(*in, args.seed, args.seconds * 2 / 3, true, connections, &wall_s);
  record(traced, out);
  for (const char* phase : kPhases) {
    for (const char* tier : {"hit.", "miss."}) {
      const std::string name = std::string(tier) + phase;
      auto it = traced.phase_ms.find(name);
      out.set("service." + name + "_ms",
              it == traced.phase_ms.end() ? 0.0 : quantile(it->second, 0.5));
    }
  }
  out.set("service.client_ms", quantile(traced.client_ms, 0.5));
  // Overhead on the median request (a cache hit), where the trace array
  // a traced reply carries weighs most.
  const double traced_op_ms = quantile(traced.latency_ms, 0.5);
  out.set("bench.traced_op_ms", traced_op_ms);
  out.set("bench.span_coverage", traced.wall_ms > 0 ? traced.span_ms / traced.wall_ms : 0.0);
  const double plain_op_ms = quantile(plain.latency_ms, 0.5);
  out.set("bench.trace_overhead_pct",
          plain_op_ms > 0 ? 100.0 * (traced_op_ms - plain_op_ms) / plain_op_ms : 0.0);

  const dvs::Json reply = stats(*in);
  const dvs::Json& cache = *reply.find("cache");
  const double hits = cache.find("hits")->as_double();
  const double misses = cache.find("misses")->as_double();
  out.set("service.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const dvs::Json& pool = *reply.find("pool");
  out.set("service.errors", reply.find("jobs")->find("failed")->as_double() +
                                pool.find("overload_rejections")->as_double() +
                                pool.find("deadline_expired")->as_double());

  double parse_ms = 0.0;
  double bytes = 0.0;
  for (const std::string& text : in->blif) {
    const Clock::time_point t0 = Clock::now();
    dvs::read_blif_string(text);
    parse_ms += ms_since(t0);
    bytes += static_cast<double>(text.size());
  }
  const double texts = static_cast<double>(in->blif.size());
  out.set("netlist.blif_parse_ms", parse_ms / texts);
  out.set("netlist.blif_bytes", bytes / texts);
}

}  // namespace perfbench
