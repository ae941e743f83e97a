#include "service/worker.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "support/json.hpp"

namespace dvs {

namespace {

using Action = FaultInjector::Action;

/// Makes the body fail its checksum while staying valid JSON (the
/// corruption model is bit-rot in the payload, not a broken channel):
/// the first digit is bumped, so the scheduler parses the line fine and
/// the mismatch is caught exactly where real corruption would be.
void corrupt_body(std::string* body) {
  const std::size_t pos = body->find_first_of("0123456789");
  if (pos == std::string::npos) {
    body->push_back(' ');
    return;
  }
  char& c = (*body)[pos];
  c = c == '9' ? '0' : static_cast<char>(c + 1);
}

/// Decrements a counter on every exit path of handle_job.  The release
/// pairs with stop()'s acquire load: once stop() reads zero, every
/// access the job made to the agent happens-before the agent's
/// destruction.
struct InflightGuard {
  std::atomic<int>* counter;
  ~InflightGuard() { counter->fetch_sub(1, std::memory_order_release); }
};

}  // namespace

void WorkerAgent::Channel::send_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mutex);
  socket.send_all(line);
}

WorkerAgent::WorkerAgent(ServiceCore* core, WorkerAgentConfig config)
    : core_(core), config_(std::move(config)) {
  if (config_.connect.empty())
    throw std::runtime_error("worker agent needs a scheduler address");
  if (config_.heartbeat_ms < 10) config_.heartbeat_ms = 10;
}

WorkerAgent::~WorkerAgent() { stop(); }

void WorkerAgent::start() {
  if (thread_.joinable()) return;
  thread_ = std::thread([this] { run_loop(); });
}

void WorkerAgent::request_stop() noexcept {
  stopping_.store(true);
  const int fd = channel_fd_.load();
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void WorkerAgent::stop() {
  request_stop();
  sleep_cv_.notify_all();
  heartbeat_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // In-flight leased jobs still hold the channel; let them finish (a
  // stalled fault sleep exits early on the stop flag) so the caller can
  // tear the core down safely.
  while (inflight_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void WorkerAgent::run_loop() {
  BackoffPolicy backoff;
  backoff.base_ms = 100.0;
  backoff.max_ms = 2000.0;
  backoff.seed = fnv1a64(config_.name + "|" + config_.connect);
  int failures = 0;
  while (!stopping_.load()) {
    bool registered = false;
    try {
      serve_cycle(&registered);
    } catch (const std::exception& e) {
      if (config_.verbose)
        std::fprintf(stderr, "dvs-worker: %s\n", e.what());
    }
    if (registered) failures = 0;
    if (stopping_.load()) break;
    interruptible_sleep(static_cast<int>(
        backoff.delay_ms(std::min(failures++, 8))));
  }
}

void WorkerAgent::serve_cycle(bool* registered) {
  const std::string& addr = config_.connect;
  auto channel = std::make_shared<Channel>();
  if (addr.find('/') != std::string::npos) {
    channel->socket = Socket::connect_unix(addr, config_.connect_timeout_ms);
  } else {
    const std::size_t colon = addr.rfind(':');
    const std::string host =
        colon == std::string::npos || colon == 0 ? "127.0.0.1"
                                                 : addr.substr(0, colon);
    const std::string port_text =
        colon == std::string::npos ? addr : addr.substr(colon + 1);
    int port = 0;
    try {
      port = std::stoi(port_text);
    } catch (const std::exception&) {
      throw std::runtime_error("bad scheduler address '" + addr + "'");
    }
    channel->socket =
        Socket::connect_tcp(host, port, config_.connect_timeout_ms);
  }
  channel_fd_.store(channel->socket.fd());
  // request_stop between the connect and the store above: make sure the
  // new channel doesn't outlive the stop request.
  if (stopping_.load()) {
    channel_fd_.store(-1);
    return;
  }

  const int capacity =
      config_.capacity > 0 ? config_.capacity : core_->pool->num_threads();
  {
    Json::Object reg;
    reg["type"] = Json("register_worker");
    if (!config_.name.empty()) reg["name"] = Json(config_.name);
    reg["capacity"] = Json(static_cast<std::int64_t>(capacity));
    channel->send_line(Json(std::move(reg)).dump() + "\n");
  }

  LineReader reader(&channel->socket, core_->config.max_line_bytes);
  std::string line;
  if (!reader.read_line(&line))
    throw std::runtime_error("scheduler closed during registration");
  const Json ack = Json::parse(line);
  const Json* ack_type = ack.find("type");
  if (ack_type == nullptr || ack_type->as_string() != "registered") {
    const Json* message = ack.find("message");
    throw std::runtime_error(
        "registration refused: " +
        (message != nullptr ? message->as_string() : line));
  }
  if (registered != nullptr) *registered = true;
  if (config_.verbose) {
    const Json* name = ack.find("name");
    std::fprintf(stderr, "dvs-worker: registered as %s (capacity %d)\n",
                 name != nullptr ? name->as_string().c_str() : "?", capacity);
  }
  connected_.store(true);

  std::thread heartbeat([this, channel] { heartbeat_loop(channel); });

  if (config_.faults.at("register") != Action::kNone) {
    // Scripted infant mortality: die right after being accepted into
    // the fleet, whatever the configured action.
    channel->socket.shutdown_both();
  } else {
    try {
      while (!stopping_.load() && reader.read_line(&line)) {
        if (line.empty()) continue;
        const Json message = Json::parse(line);
        const Json* type = message.find("type");
        if (type == nullptr || type->as_string() != "job") continue;
        const Json* lease = message.find("lease");
        const Json* request = message.find("request");
        if (lease == nullptr || request == nullptr) continue;
        const Action accept_action = config_.faults.at("job-accept");
        if (accept_action == Action::kDropConnection ||
            accept_action == Action::kDieAfterAccept)
          break;
        inflight_.fetch_add(1, std::memory_order_relaxed);
        core_->pool->submit([this, channel, lease_id = lease->as_uint(),
                             request_line = request->dump()] {
          handle_job(channel, lease_id, request_line);
        });
      }
    } catch (const std::exception& e) {
      if (config_.verbose)
        std::fprintf(stderr, "dvs-worker: channel error: %s\n", e.what());
    }
  }

  connected_.store(false);
  channel_fd_.store(-1);
  channel->socket.shutdown_both();
  heartbeat_cv_.notify_all();
  heartbeat.join();
}

void WorkerAgent::heartbeat_loop(const std::shared_ptr<Channel>& channel) {
  const int capacity =
      config_.capacity > 0 ? config_.capacity : core_->pool->num_threads();
  std::unique_lock<std::mutex> lock(heartbeat_mutex_);
  while (!heartbeat_cv_.wait_for(
      lock, std::chrono::milliseconds(config_.heartbeat_ms),
      [this] { return stopping_.load() || !connected_.load(); })) {
    lock.unlock();
    try {
      channel->send_line(fleet_heartbeat_line(inflight_.load(), capacity));
    } catch (const SocketError&) {
      lock.lock();
      break;
    }
    lock.lock();
  }
}

void WorkerAgent::handle_job(const std::shared_ptr<Channel>& channel,
                             std::uint64_t lease,
                             const std::string& request_line) {
  InflightGuard guard{&inflight_};
  std::string reply;
  try {
    const Request request = parse_request(request_line);
    if (request.type != RequestType::kOptimize)
      throw ProtocolError("fleet job must carry an optimize request");
    const OptimizeOutcome outcome = execute_optimize(
        *core_, request.optimize, nullptr, /*allow_remote=*/false);
    std::string body = *outcome.body;
    const Action action = config_.faults.at("job-reply");
    if (action == Action::kStall)
      interruptible_sleep(config_.faults.stall_ms());
    if (action == Action::kDropConnection ||
        action == Action::kDieAfterAccept) {
      channel->socket.shutdown_both();
      return;
    }
    const std::uint64_t checksum = fnv1a64(body);
    if (action == Action::kCorruptReply) corrupt_body(&body);
    reply = fleet_result_line(lease, body, checksum);
    jobs_executed_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    reply = fleet_error_line(lease, e.what());
  }
  try {
    channel->send_line(reply);
  } catch (const SocketError&) {
    // The channel died while we computed; the scheduler has already
    // failed the lease over.
  }
}

void WorkerAgent::interruptible_sleep(int ms) {
  if (ms <= 0) return;
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  sleep_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                     [this] { return stopping_.load(); });
}

}  // namespace dvs
