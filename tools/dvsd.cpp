// dvsd — the dual-Vdd optimization daemon.  Serves the NDJSON protocol
// documented in README.md ("Optimization as a service") on a loopback
// TCP port or a Unix-domain socket until SIGINT/SIGTERM or a client
// `shutdown` request.
//
//   $ dvsd --port 7117                 # TCP on 127.0.0.1:7117
//   $ dvsd --unix /tmp/dvsd.sock      # Unix-domain socket
//   $ dvsd --port 0                    # kernel-assigned port (printed)
//   $ dvsd --cache-dir /var/dvsd      # persistent disk cache tier
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/server.hpp"
#include "support/units.hpp"

namespace {

dvs::Service* g_service = nullptr;

void on_signal(int) {
  if (g_service != nullptr) g_service->request_stop();
}

void usage(std::FILE* out) {
  std::fputs(
      "usage: dvsd [--port N | --unix PATH] [--threads N]\n"
      "            [--cache-bytes N[K|M|G]] [--cache-dir PATH]\n"
      "            [--max-line-bytes N[K|M|G]] [--max-backlog N]\n"
      "            [--max-inflight N] [--drain-timeout-ms N]\n"
      "            [--session-idle-ms N] [--design-bytes N[K|M|G]]\n"
      "            [--max-designs N]\n"
      "            [--metrics-port N] [--trace-log PATH] [--slow-ms X]\n"
      "            [--scheduler] [--lease-ms N] [--heartbeat-timeout-ms N]\n"
      "            [--dispatch-retries N] [--dispatch-backoff-ms N]\n"
      "            [--join ADDR] [--worker-name S] [--capacity N]\n"
      "            [--heartbeat-ms N]\n"
      "            [--fault-inject SPEC] [--verbose]\n"
      "\n"
      "Serves dual-Vdd optimization jobs over newline-delimited JSON\n"
      "(protocol: see README.md).  Options:\n"
      "  --port N             listen on 127.0.0.1:N (0 = kernel-assigned;\n"
      "                       the bound port is printed on stdout)\n"
      "  --unix PATH          listen on a Unix-domain socket instead\n"
      "  --threads N          flow worker threads (default: all cores)\n"
      "  --cache-bytes N      in-memory result-cache budget, bytes of\n"
      "                       payload; K/M/G suffixes ok (default 256M)\n"
      "  --cache-dir PATH     disk cache tier: results persist here and\n"
      "                       warm-hit across daemon restarts\n"
      "  --max-line-bytes N   NDJSON request-line cap (default 64M)\n"
      "  --max-backlog N      reject optimize/batch with an 'overloaded'\n"
      "                       error once N jobs are queued or running\n"
      "                       (default: 8x worker threads)\n"
      "  --max-inflight N     per-connection in-flight job window\n"
      "                       (default 64)\n"
      "  --drain-timeout-ms N graceful-drain budget on SIGTERM/stop\n"
      "                       (default 30000)\n"
      "  --session-idle-ms N  expire an open design handle after N ms\n"
      "                       idle (0 = never; default 600000)\n"
      "  --design-bytes N     resident-byte budget across open designs;\n"
      "                       oldest-idle handles are evicted above it\n"
      "                       (0 = unlimited; default 1G)\n"
      "  --max-designs N      cap on simultaneously open design handles\n"
      "                       (default 256)\n"
      "  --metrics-port N     serve the Prometheus text exposition on\n"
      "                       127.0.0.1:N (0 = kernel-assigned, printed;\n"
      "                       default: disabled)\n"
      "  --trace-log PATH     append one NDJSON trace record (spans,\n"
      "                       wall_ms, cache tier) per request to PATH\n"
      "  --slow-ms X          log requests slower than X ms to stderr\n"
      "  --scheduler          accept dvs-worker registrations and dispatch\n"
      "                       cache misses to the fleet (local fallback)\n"
      "  --lease-ms N         per-job worker lease deadline (default 10000)\n"
      "  --heartbeat-timeout-ms N\n"
      "                       expire a silent worker after N ms (default\n"
      "                       3000) and requeue its leases\n"
      "  --dispatch-retries N retry budget per dispatch, preferring a\n"
      "                       different worker each time (default 2)\n"
      "  --dispatch-backoff-ms N\n"
      "                       base of the exponential retry backoff\n"
      "                       (default 50)\n"
      "  --join ADDR          also register with the scheduler at ADDR\n"
      "                       (host:port or a Unix-socket path) and lend\n"
      "                       this daemon's pool to its fleet\n"
      "  --worker-name S      identity announced on --join\n"
      "  --capacity N         max concurrently leased jobs on --join\n"
      "                       (default: worker threads)\n"
      "  --heartbeat-ms N     heartbeat cadence on --join (default 500)\n"
      "  --fault-inject SPEC  deterministic fault injection for the --join\n"
      "                       worker side, e.g.\n"
      "                       'job-reply=corrupt-reply@0.5,seed=7'\n"
      "                       (default: $DVS_FAULT_INJECT)\n"
      "  --verbose            log connections to stderr\n"
      "  --help               this text\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  dvs::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    auto bytes_value = [&](std::size_t* out) {
      const char* text = value();
      if (!dvs::parse_bytes(text, out)) {
        std::fprintf(stderr, "dvsd: %s wants a byte count, got '%s'\n",
                     flag.c_str(), text);
        std::exit(1);
      }
    };
    if (flag == "--port")
      config.tcp_port = std::atoi(value());
    else if (flag == "--unix")
      config.unix_path = value();
    else if (flag == "--threads")
      config.num_threads = std::atoi(value());
    else if (flag == "--cache-bytes")
      bytes_value(&config.cache_bytes);
    else if (flag == "--cache-dir")
      config.cache_dir = value();
    else if (flag == "--max-line-bytes")
      bytes_value(&config.max_line_bytes);
    else if (flag == "--max-backlog")
      config.max_backlog =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 0));
    else if (flag == "--max-inflight")
      config.max_inflight_per_connection =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 0));
    else if (flag == "--drain-timeout-ms")
      config.drain_timeout_ms = std::atoi(value());
    else if (flag == "--session-idle-ms")
      config.session_idle_ms = std::strtoull(value(), nullptr, 0);
    else if (flag == "--design-bytes")
      bytes_value(&config.design_bytes);
    else if (flag == "--max-designs")
      config.max_open_designs =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 0));
    else if (flag == "--metrics-port")
      config.metrics_port = std::atoi(value());
    else if (flag == "--trace-log")
      config.trace_log_path = value();
    else if (flag == "--slow-ms")
      config.slow_ms = std::atof(value());
    else if (flag == "--scheduler")
      config.scheduler = true;
    else if (flag == "--lease-ms")
      config.lease_ms = std::atoi(value());
    else if (flag == "--heartbeat-timeout-ms")
      config.heartbeat_timeout_ms = std::atoi(value());
    else if (flag == "--dispatch-retries")
      config.dispatch_retries = std::atoi(value());
    else if (flag == "--dispatch-backoff-ms")
      config.dispatch_backoff_ms = std::atoi(value());
    else if (flag == "--join")
      config.join = value();
    else if (flag == "--worker-name")
      config.worker_name = value();
    else if (flag == "--capacity")
      config.worker_capacity = std::atoi(value());
    else if (flag == "--heartbeat-ms")
      config.heartbeat_ms = std::atoi(value());
    else if (flag == "--fault-inject")
      config.fault_spec = value();
    else if (flag == "--verbose")
      config.verbose = true;
    else if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "dvsd: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 1;
    }
  }
  if (config.cache_bytes == 0) {
    std::fprintf(stderr, "dvsd: --cache-bytes must be >= 1\n");
    return 1;
  }
  if (config.max_line_bytes < 1024) {
    std::fprintf(stderr, "dvsd: --max-line-bytes must be >= 1024\n");
    return 1;
  }

  try {
    dvs::Service service(config);
    service.start();
    g_service = &service;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);
    if (config.unix_path.empty())
      std::printf("dvsd: listening on 127.0.0.1:%d\n", service.port());
    else
      std::printf("dvsd: listening on %s\n", config.unix_path.c_str());
    if (config.metrics_port >= 0)
      std::printf("dvsd: metrics on http://127.0.0.1:%d/metrics\n",
                  service.metrics_port());
    if (config.scheduler)
      std::printf("dvsd: scheduler mode (accepting worker registrations)\n");
    if (!config.join.empty())
      std::printf("dvsd: joining fleet at %s\n", config.join.c_str());
    std::fflush(stdout);
    service.wait();
    service.stop();
    g_service = nullptr;
    const dvs::CacheStats cache = service.cache_stats();
    std::printf("dvsd: bye (%llu hits, %llu misses, %llu evictions)\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.evictions));
    if (!config.cache_dir.empty()) {
      const dvs::DiskCacheStats disk = service.disk_stats();
      std::printf(
          "dvsd: disk tier (%llu hits, %llu misses, %llu writes, "
          "%llu write errors)\n",
          static_cast<unsigned long long>(disk.hits),
          static_cast<unsigned long long>(disk.misses),
          static_cast<unsigned long long>(disk.writes),
          static_cast<unsigned long long>(disk.write_errors));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvsd: %s\n", e.what());
    return 1;
  }
}
