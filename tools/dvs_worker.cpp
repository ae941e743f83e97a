// dvs-worker — standalone fleet worker for a dvsd scheduler.  Connects
// to `dvsd --scheduler`, registers, and executes leased optimization
// jobs on its own ThreadPool; answers are bit-identical to what the
// scheduler would compute locally.
//
//   $ dvs-worker --join 127.0.0.1:7117
//   $ dvs-worker --join /tmp/dvsd.sock --threads 8 --name rack2-w0
//
// A lost scheduler is not fatal: the agent reconnects with bounded
// backoff until SIGINT/SIGTERM.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "service/server.hpp"
#include "service/worker.hpp"
#include "support/units.hpp"

namespace {

dvs::WorkerAgent* g_agent = nullptr;
std::atomic<bool> g_stop{false};

void on_signal(int) {
  // request_stop is atomics + one shutdown() syscall: signal-safe.
  g_stop.store(true);
  if (g_agent != nullptr) g_agent->request_stop();
}

void usage(std::FILE* out) {
  std::fputs(
      "usage: dvs-worker --join ADDR [--threads N] [--capacity N]\n"
      "                  [--name S] [--cache-bytes N[K|M|G]]\n"
      "                  [--cache-dir PATH] [--heartbeat-ms N]\n"
      "                  [--fault-inject SPEC] [--verbose]\n"
      "\n"
      "Executes fleet jobs for a dvsd scheduler.  Options:\n"
      "  --join ADDR          scheduler address: host:port, :port, or a\n"
      "                       Unix-socket path (required)\n"
      "  --threads N          flow worker threads (default: all cores)\n"
      "  --capacity N         max concurrently leased jobs announced to\n"
      "                       the scheduler (default: worker threads)\n"
      "  --name S             announced identity (default: assigned)\n"
      "  --cache-bytes N      local result-cache budget (default 256M)\n"
      "  --cache-dir PATH     local persistent cache tier\n"
      "  --heartbeat-ms N     heartbeat cadence (default 500)\n"
      "  --fault-inject SPEC  deterministic fault injection, e.g.\n"
      "                       'job-reply=stall@1.0,stall_ms=5000,seed=7'\n"
      "                       (default: $DVS_FAULT_INJECT)\n"
      "  --verbose            log fleet events to stderr\n"
      "  --help               this text\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  dvs::ServiceCore core;
  dvs::WorkerAgentConfig agent_config;
  std::string fault_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--join")
      agent_config.connect = value();
    else if (flag == "--threads")
      core.config.num_threads = std::atoi(value());
    else if (flag == "--capacity")
      agent_config.capacity = std::atoi(value());
    else if (flag == "--name")
      agent_config.name = value();
    else if (flag == "--cache-bytes") {
      const char* text = value();
      if (!dvs::parse_bytes(text, &core.config.cache_bytes) ||
          core.config.cache_bytes == 0) {
        std::fprintf(stderr,
                     "dvs-worker: --cache-bytes wants a byte count, got "
                     "'%s'\n",
                     text);
        return 1;
      }
    } else if (flag == "--cache-dir")
      core.config.cache_dir = value();
    else if (flag == "--heartbeat-ms")
      agent_config.heartbeat_ms = std::atoi(value());
    else if (flag == "--fault-inject")
      fault_spec = value();
    else if (flag == "--verbose")
      agent_config.verbose = true;
    else if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "dvs-worker: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 1;
    }
  }
  if (agent_config.connect.empty()) {
    std::fprintf(stderr, "dvs-worker: --join ADDR is required\n");
    usage(stderr);
    return 1;
  }

  try {
    agent_config.faults = fault_spec.empty()
                              ? dvs::FaultInjector::from_env()
                              : dvs::FaultInjector::parse(fault_spec);
    core.init(nullptr);
    dvs::WorkerAgent agent(&core, agent_config);
    agent.start();
    g_agent = &agent;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);
    std::printf("dvs-worker: joining %s (%d threads)\n",
                agent_config.connect.c_str(), core.pool->num_threads());
    std::fflush(stdout);
    // Polls instead of waiting on a condition variable: the signal
    // handler must stay async-signal-safe, so it cannot notify.
    while (!g_stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    agent.stop();
    g_agent = nullptr;
    core.pool->wait_idle();
    if (core.disk) core.disk->flush();
    std::printf("dvs-worker: bye (%llu jobs executed)\n",
                static_cast<unsigned long long>(agent.jobs_executed()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvs-worker: %s\n", e.what());
    return 1;
  }
}
