// Fleet wall: boots a real `dvsd --scheduler`-shaped Service plus
// in-process WorkerAgents on ephemeral loopback ports and drives the
// distributed path end to end — registration/heartbeats, remote
// execution with bit-identical answers, worker expiry, corrupt-reply
// and stall fault injection, retry-on-different-worker, fall-back to
// local execution, and graceful drain with leased work in flight.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/suite.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "service/worker.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"

namespace dvs {
namespace {

/// A connected NDJSON test client (same shape as service_test's).
class Client {
 public:
  explicit Client(int port)
      : socket_(Socket::connect_tcp("127.0.0.1", port)),
        reader_(&socket_, 64u << 20) {}

  void send(const std::string& request) { socket_.send_all(request + "\n"); }

  Json recv() {
    std::string line;
    EXPECT_TRUE(reader_.read_line(&line)) << "connection closed early";
    return Json::parse(line);
  }

  bool recv_line(std::string* line) { return reader_.read_line(line); }

 private:
  Socket socket_;
  LineReader reader_;
};

/// An in-process fleet worker: its own ServiceCore (no listener) plus a
/// WorkerAgent joined to the test scheduler.
class TestWorker {
 public:
  TestWorker(int scheduler_port, const std::string& name,
             const std::string& fault_spec = "") {
    core_.config.num_threads = 2;
    core_.config.cache_bytes = 8u << 20;
    core_.init(nullptr);
    WorkerAgentConfig config;
    config.connect = "127.0.0.1:" + std::to_string(scheduler_port);
    config.name = name;
    config.heartbeat_ms = 100;
    if (!fault_spec.empty())
      config.faults = FaultInjector::parse(fault_spec);
    agent_.emplace(&core_, std::move(config));
    agent_->start();
  }

  ~TestWorker() { stop(); }

  void stop() {
    if (agent_) {
      agent_->stop();
      agent_.reset();
      core_.pool->wait_idle();
    }
  }

  bool connected() const { return agent_ && agent_->connected(); }

 private:
  ServiceCore core_;
  std::optional<WorkerAgent> agent_;
};

/// The report with wall-clock columns zeroed (legitimately
/// nondeterministic even between two local runs).
std::string comparable(Json report) {
  auto& object = report.as_object();
  if (auto it = object.find("gscale"); it != object.end())
    it->second.as_object()["seconds"] = Json(0.0);
  return report.dump();
}

class SchedulerTest : public ::testing::Test {
 protected:
  void start_service(ServiceConfig config) {
    config.tcp_port = 0;
    config.scheduler = true;
    if (config.num_threads == 0) config.num_threads = 2;
    service_.emplace(config);
    service_->start();
  }

  void TearDown() override {
    workers_.clear();  // agents stop before the scheduler goes away
    if (service_) {
      service_->request_stop();
      service_->stop();
    }
  }

  int port() const { return service_->port(); }

  TestWorker& add_worker(const std::string& name,
                         const std::string& fault_spec = "") {
    workers_.push_back(
        std::make_unique<TestWorker>(port(), name, fault_spec));
    return *workers_.back();
  }

  /// Polls `stats` until `ready(stats)` holds; fails after ~5 s.
  Json await_stats(const std::function<bool(const Json&)>& ready) {
    Client observer(port());
    Json stats;
    for (int spins = 0; spins < 5000; ++spins) {
      observer.send(R"({"type":"stats"})");
      stats = observer.recv();
      if (ready(stats)) return stats;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "stats condition never became true: " << stats.dump();
    return stats;
  }

  /// Blocks until `count` live (non-expired) workers are registered.
  void await_workers(std::size_t count) {
    await_stats([count](const Json& stats) {
      const Json* fleet = stats.find("fleet");
      if (fleet == nullptr) return false;
      std::size_t live = 0;
      for (const Json& w : fleet->find("workers")->as_array())
        if (!w.find("expired")->as_bool()) ++live;
      return live >= count;
    });
  }

  static std::uint64_t fleet_counter(const Json& stats, const char* key) {
    return stats.find("fleet")->find(key)->as_uint();
  }

  std::optional<Service> service_;
  std::vector<std::unique_ptr<TestWorker>> workers_;
};

TEST_F(SchedulerTest, WorkerRegistersHeartbeatsAndExecutesRemotely) {
  start_service({});
  add_worker("w1");
  await_workers(1);

  // The suite engine is the bit-identity reference: a fleet answer must
  // match a serial local run exactly (modulo wall-clock columns).
  SuiteOptions suite;
  suite.circuits = {"x2"};
  suite.num_threads = 1;
  const SuiteReport reference = run_suite(suite);
  const std::string expected =
      comparable(report_json(reference.rows[0], true, true, true));

  Client client(port());
  client.send(R"({"type":"optimize","circuit":"x2"})");
  Json first = client.recv();
  ASSERT_EQ(first.find("type")->as_string(), "result") << first.dump();
  EXPECT_EQ(first.find("cache")->as_string(), "miss");
  // The job ran on the worker, and the response says so.
  ASSERT_NE(first.find("executor"), nullptr) << first.dump();
  EXPECT_EQ(first.find("executor")->as_string(), "w1");
  EXPECT_EQ(comparable(*first.find("report")), expected);

  // The remote answer warmed the scheduler's cache like a local one.
  client.send(R"({"type":"optimize","circuit":"x2"})");
  Json second = client.recv();
  EXPECT_EQ(second.find("cache")->as_string(), "hit");
  EXPECT_EQ(second.find("executor"), nullptr);

  // heartbeat_ms is 100: at least one lands within the await window.
  const Json stats = await_stats([](const Json& s) {
    const Json* fleet = s.find("fleet");
    return fleet != nullptr && fleet->find("heartbeats")->as_uint() >= 1;
  });
  EXPECT_EQ(fleet_counter(stats, "remote_ok"), 1u);
  EXPECT_EQ(fleet_counter(stats, "dispatches"), 1u);
  EXPECT_EQ(fleet_counter(stats, "fallback_local"), 0u);
  EXPECT_EQ(fleet_counter(stats, "workers_registered"), 1u);
}

TEST_F(SchedulerTest, SchedulerExpiresSilentWorkerAndFallsBackLocally) {
  ServiceConfig config;
  config.heartbeat_timeout_ms = 300;
  config.lease_ms = 500;
  config.dispatch_retries = 0;
  start_service(config);

  // A hand-rolled worker that registers and then goes silent: no
  // heartbeats, no job results.  The sweeper must expire it.
  Client zombie(port());
  zombie.send(R"({"type":"register_worker","name":"zombie","capacity":4})");
  Json ack = zombie.recv();
  ASSERT_EQ(ack.find("type")->as_string(), "registered") << ack.dump();
  EXPECT_EQ(ack.find("name")->as_string(), "zombie");
  await_workers(1);

  // Dispatched to the zombie, the job's lease expires (or the expiry
  // sweep fails it over) and the answer is computed locally — correct
  // and executor-free.
  Client client(port());
  client.send(R"({"type":"optimize","circuit":"x2"})");
  Json response = client.recv();
  ASSERT_EQ(response.find("type")->as_string(), "result")
      << response.dump();
  EXPECT_EQ(response.find("executor"), nullptr);
  EXPECT_GT(response.find("report")->find("org_power_uw")->as_double(),
            0.0);

  const Json stats = await_stats([](const Json& s) {
    const Json* fleet = s.find("fleet");
    return fleet != nullptr &&
           fleet->find("workers_expired")->as_uint() >= 1;
  });
  EXPECT_GE(fleet_counter(stats, "fallback_local"), 1u);
  EXPECT_TRUE(fleet_counter(stats, "lease_expired") >= 1 ||
              fleet_counter(stats, "workers_lost") >= 1);
  // The expired worker is gone from the roster.
  EXPECT_TRUE(stats.find("fleet")->find("workers")->as_array().empty());
}

TEST_F(SchedulerTest, CorruptRepliesRetryOnADifferentWorker) {
  ServiceConfig config;
  config.dispatch_backoff_ms = 1;
  start_service(config);
  // w-bad corrupts every reply body (checksum mismatch, still valid
  // JSON); w-good answers honestly.  Capacity 2 each, so the retry has
  // a different worker to prefer.  w-bad registers first: among idle
  // workers the scheduler picks the earliest registered, so every job
  // lands on w-bad first.
  add_worker("w-bad", "job-reply=corrupt-reply@1.0,seed=7");
  await_workers(1);
  add_worker("w-good");
  await_workers(2);

  // Every answer must still be correct and attributed to w-good (the
  // retry target).
  Client client(port());
  for (const char* circuit : {"x2", "z4ml", "pm1"}) {
    client.send(std::string(R"({"type":"optimize","circuit":")") +
                circuit + R"("})");
    Json response = client.recv();
    ASSERT_EQ(response.find("type")->as_string(), "result")
        << response.dump();
    if (response.find("executor") != nullptr) {
      EXPECT_EQ(response.find("executor")->as_string(), "w-good");
    }
  }

  const Json stats = await_stats([](const Json&) { return true; });
  EXPECT_GE(fleet_counter(stats, "corrupt_replies"), 1u);
  EXPECT_GE(fleet_counter(stats, "dispatch_retries"), 1u);
  EXPECT_GE(fleet_counter(stats, "remote_ok"), 1u);
}

TEST_F(SchedulerTest, StalledWorkerLeaseExpiresAndJobRunsLocally) {
  ServiceConfig config;
  config.lease_ms = 300;
  config.dispatch_retries = 0;
  start_service(config);
  // The worker accepts the job and then sleeps "forever": the lease
  // must expire and the scheduler must answer from its own pool.
  add_worker("w-stall", "job-reply=stall@1.0,stall_ms=60000,seed=1");
  await_workers(1);

  Client client(port());
  const auto sent = std::chrono::steady_clock::now();
  client.send(R"({"type":"optimize","circuit":"x2"})");
  Json response = client.recv();
  const double wait_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - sent)
          .count();
  ASSERT_EQ(response.find("type")->as_string(), "result")
      << response.dump();
  EXPECT_EQ(response.find("executor"), nullptr);
  // Bounded failover: one lease window plus the local compute, not the
  // worker's 60 s stall.
  EXPECT_LT(wait_ms, 10'000.0);

  const Json stats = await_stats([](const Json&) { return true; });
  EXPECT_GE(fleet_counter(stats, "lease_expired"), 1u);
  EXPECT_GE(fleet_counter(stats, "fallback_local"), 1u);
  EXPECT_EQ(fleet_counter(stats, "remote_ok"), 0u);
}

TEST_F(SchedulerTest, DispatchTraceSpansNameTheWorker) {
  start_service({});
  add_worker("w1");
  await_workers(1);

  Client client(port());
  client.send(R"({"type":"optimize","circuit":"x2","trace":true})");
  Json response = client.recv();
  ASSERT_EQ(response.find("type")->as_string(), "result")
      << response.dump();
  ASSERT_NE(response.find("trace"), nullptr);
  bool saw_dispatch = false;
  for (const Json& span : response.find("trace")->as_array())
    if (span.find("name")->as_string() == "dispatch:w1") {
      saw_dispatch = true;
      EXPECT_EQ(span.find("depth")->as_int(), 1);
    }
  EXPECT_TRUE(saw_dispatch) << response.dump();
}

TEST_F(SchedulerTest, DieAfterRegisterWorkersAreReapedCleanly) {
  ServiceConfig config;
  config.heartbeat_timeout_ms = 500;
  start_service(config);
  // The agent registers and instantly drops the channel, then its
  // reconnect loop does it again — scripted infant mortality.
  add_worker("w-flaky", "register=die-after-accept@1.0,seed=2");

  await_stats([](const Json& s) {
    const Json* fleet = s.find("fleet");
    return fleet != nullptr &&
           fleet->find("workers_registered")->as_uint() >= 2;
  });

  // The roster churn never breaks request serving.
  Client client(port());
  client.send(R"({"type":"optimize","circuit":"x2"})");
  Json response = client.recv();
  ASSERT_EQ(response.find("type")->as_string(), "result")
      << response.dump();
  EXPECT_GT(response.find("report")->find("org_power_uw")->as_double(),
            0.0);
}

TEST_F(SchedulerTest, BatchSurvivesWorkerKilledMidFlight) {
  ServiceConfig config;
  config.dispatch_backoff_ms = 1;
  start_service(config);
  TestWorker& victim = add_worker("w-victim");
  add_worker("w-survivor");
  await_workers(2);

  SuiteOptions suite;
  suite.circuits = {"x2", "z4ml", "pm1", "i1", "mux"};
  suite.num_threads = 1;
  const SuiteReport reference = run_suite(suite);

  Client client(port());
  client.send(
      R"({"type":"batch","circuits":["x2","z4ml","pm1","i1","mux"],)"
      R"("id":"chaos"})");
  // Kill one worker the moment the fleet has work in flight.
  await_stats([](const Json& s) {
    const Json* fleet = s.find("fleet");
    return fleet != nullptr && fleet->find("dispatches")->as_uint() >= 1;
  });
  victim.stop();

  std::set<std::uint64_t> seen;
  bool done = false;
  while (!done) {
    Json response = client.recv();
    const std::string type = response.find("type")->as_string();
    ASSERT_TRUE(type == "batch_item" || type == "batch_done")
        << response.dump();
    if (type == "batch_done") {
      EXPECT_EQ(response.find("count")->as_uint(), 5u);
      EXPECT_EQ(response.find("failed")->as_uint(), 0u);
      done = true;
      continue;
    }
    ASSERT_EQ(response.find("error"), nullptr) << response.dump();
    const std::uint64_t index = response.find("index")->as_uint();
    ASSERT_LT(index, reference.rows.size());
    EXPECT_TRUE(seen.insert(index).second) << "duplicate item";
    // Bit-identity holds no matter who computed the row — victim,
    // survivor, or the local fallback.
    EXPECT_EQ(
        comparable(*response.find("report")),
        comparable(report_json(reference.rows[index], true, true, true)));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST_F(SchedulerTest, GracefulStopWithLeasedBatchNeverDropsRows) {
  // SIGTERM-shaped stop while leased work is in flight on a stalling
  // worker: the drain cancels the leases, every item falls back to
  // local execution, and the client still gets all rows + batch_done.
  ServiceConfig config;
  config.lease_ms = 60'000;  // the drain, not expiry, must cancel these
  config.dispatch_retries = 0;
  start_service(config);
  add_worker("w-stall", "job-reply=stall@1.0,stall_ms=60000,seed=5");
  await_workers(1);

  Client client(port());
  client.send(
      R"({"type":"batch","circuits":["x2","z4ml","pm1"],"id":"drain"})");
  await_stats([](const Json& s) {
    const Json* fleet = s.find("fleet");
    return fleet != nullptr && fleet->find("dispatches")->as_uint() >= 1;
  });

  service_->request_stop();
  service_->stop();  // blocks until drained

  std::set<std::uint64_t> seen;
  bool done = false;
  std::string line;
  while (client.recv_line(&line)) {
    if (line.empty()) continue;
    const Json response = Json::parse(line);
    const std::string type = response.find("type")->as_string();
    ASSERT_TRUE(type == "batch_item" || type == "batch_done")
        << response.dump();
    if (type == "batch_done") {
      EXPECT_EQ(response.find("count")->as_uint(), 3u);
      EXPECT_EQ(response.find("failed")->as_uint(), 0u);
      done = true;
    } else {
      ASSERT_EQ(response.find("error"), nullptr) << response.dump();
      seen.insert(response.find("index")->as_uint());
    }
  }
  EXPECT_TRUE(done) << "batch_done never arrived before EOF";
  EXPECT_EQ(seen.size(), 3u);
  service_.reset();
}

TEST_F(SchedulerTest, RegisterWorkerRejectedWithoutSchedulerMode) {
  ServiceConfig config;
  service_.emplace(config);  // plain daemon, no --scheduler
  service_->start();

  Client client(port());
  client.send(R"({"type":"register_worker","name":"w1","capacity":2})");
  Json error = client.recv();
  ASSERT_EQ(error.find("type")->as_string(), "error") << error.dump();
  EXPECT_NE(error.find("message")->as_string().find("--scheduler"),
            std::string::npos);
  // The connection still serves normal requests.
  client.send(R"({"type":"ping"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "pong");
}

}  // namespace
}  // namespace dvs
