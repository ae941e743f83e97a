// End-to-end wall for the dvsd service: boots a real Service on an
// ephemeral loopback port and drives it through sockets exactly like a
// client would — protocol fidelity, suite-engine equality, cache
// behavior across netlist formats, error containment, batch streaming,
// and shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "benchgen/mcnc.hpp"
#include "core/suite.hpp"
#include "library/library.hpp"
#include "netlist/blif.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"
#include "support/version.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace dvs {
namespace {

const char* kDemoBlif = R"(.model demo
.inputs a b c d e f
.outputs y z
.names a b t1
11 1
.names c d t2
1- 1
-1 1
.names t1 t2 t3
10 1
01 1
.names t3 e t4
11 1
.names t4 f y
1- 1
-1 1
.names t2 e z
11 1
.end
)";

/// Value of one exposition series in a metrics dump. `series` must be
/// the exact line prefix, labels included (e.g. "dvsd_requests_total" or
/// "dvsd_cache_hits_total{tier=\"memory\"}"). Returns -1 when absent.
double metric_value(const std::string& text, const std::string& series) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol - pos > series.size() &&
        text.compare(pos, series.size(), series) == 0 &&
        text[pos + series.size()] == ' ')
      return std::atof(text.c_str() + pos + series.size() + 1);
    pos = eol + 1;
  }
  return -1.0;
}

/// A connected test client speaking NDJSON.
class Client {
 public:
  explicit Client(int port)
      : socket_(Socket::connect_tcp("127.0.0.1", port)),
        reader_(&socket_, 64u << 20) {}

  void send(const std::string& request) {
    socket_.send_all(request + "\n");
  }

  Json recv() {
    std::string line;
    EXPECT_TRUE(reader_.read_line(&line)) << "connection closed early";
    return Json::parse(line);
  }

  /// Raw read for tests that expect the daemon to close the connection.
  bool recv_line(std::string* line) { return reader_.read_line(line); }

 private:
  Socket socket_;
  LineReader reader_;
};

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig config;
    config.tcp_port = 0;
    config.num_threads = 2;
    config.cache_bytes = 8u << 20;
    start_service(config);
  }

  /// Boots (or reboots) the service under a test-specific config.
  void start_service(ServiceConfig config) {
    if (service_) {
      service_->request_stop();
      service_->stop();
    }
    config.tcp_port = 0;
    service_.emplace(config);
    service_->start();
  }

  void TearDown() override {
    if (service_) {
      service_->request_stop();
      service_->stop();
    }
  }

  int port() const { return service_->port(); }

  /// Polls `stats` over a fresh connection until `ready(stats)` holds
  /// (the deterministic way to wait for another connection's jobs to
  /// reach the pool).  Fails the test after ~5 s.
  Json await_stats(const std::function<bool(const Json&)>& ready) {
    Client observer(port());
    Json stats;
    for (int spins = 0; spins < 5000; ++spins) {
      observer.send(R"({"type":"stats"})");
      stats = observer.recv();
      if (ready(stats)) return stats;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "stats condition never became true: "
                  << stats.dump();
    return stats;
  }

  /// One `metrics` round trip: the Prometheus exposition text.
  std::string fetch_metrics() {
    Client observer(port());
    observer.send(R"({"type":"metrics"})");
    return observer.recv().find("text")->as_string();
  }

  std::optional<Service> service_;
};

/// The report with wall-clock columns zeroed (legitimately nondeterministic).
std::string comparable(Json report) {
  auto& object = report.as_object();
  if (auto it = object.find("gscale"); it != object.end())
    it->second.as_object()["seconds"] = Json(0.0);
  return report.dump();
}

TEST_F(ServiceTest, PingStatsAndUnknownType) {
  Client client(port());
  client.send(R"({"type":"ping","id":7})");
  Json pong = client.recv();
  EXPECT_EQ(pong.find("type")->as_string(), "pong");
  EXPECT_EQ(pong.find("id")->as_int(), 7);

  client.send(R"({"type":"stats"})");
  Json stats = client.recv();
  EXPECT_EQ(stats.find("type")->as_string(), "stats");
  EXPECT_EQ(stats.find("cache")->find("hits")->as_uint(), 0u);
  EXPECT_EQ(stats.find("cache")->find("bytes")->as_uint(), 0u);
  EXPECT_EQ(stats.find("cache")->find("rejected")->as_uint(), 0u);
  EXPECT_EQ(stats.find("cache")->find("capacity_bytes")->as_uint(),
            8u << 20);
  EXPECT_FALSE(stats.find("disk")->find("enabled")->as_bool());
  EXPECT_EQ(stats.find("pool")->find("threads")->as_int(), 2);
  EXPECT_EQ(stats.find("pool")->find("watermark")->as_uint(), 16u);
  EXPECT_EQ(stats.find("pool")->find("overload_rejections")->as_uint(),
            0u);
  EXPECT_GE(stats.find("sessions")->find("active")->as_uint(), 1u);
  EXPECT_EQ(stats.find("pool")->find("tasks_executed")->as_uint(), 0u);
  EXPECT_GE(stats.find("pool")->find("peak_depth")->as_int(), 0);
  EXPECT_EQ(stats.find("version")->as_string(), kDvsVersion);
  EXPECT_GE(stats.find("uptime_ms")->as_double(), 0.0);
  // The monotonic spelling counts every parsed request on this daemon:
  // the ping above plus this stats call.
  EXPECT_EQ(stats.find("requests_total")->as_uint(), 2u);

  client.send(R"({"type":"frobnicate"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  // Connection still serves after the error.
  client.send(R"({"type":"ping"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "pong");
}

TEST_F(ServiceTest, NamedCircuitMatchesSuiteEngineAndCaches) {
  SuiteOptions suite;
  suite.circuits = {"x2"};
  suite.num_threads = 1;
  const SuiteReport reference = run_suite(suite);
  const std::string expected =
      comparable(report_json(reference.rows[0], true, true, true));

  Client client(port());
  const std::string request = R"({"type":"optimize","circuit":"x2"})";
  client.send(request);
  Json first = client.recv();
  ASSERT_EQ(first.find("type")->as_string(), "result")
      << first.dump();
  EXPECT_EQ(first.find("cache")->as_string(), "miss");
  EXPECT_EQ(comparable(*first.find("report")), expected);
  // Metrics are attached for every enabled algorithm.
  EXPECT_NE(first.find("metrics")->find("gscale"), nullptr);

  client.send(request);
  Json second = client.recv();
  EXPECT_EQ(second.find("cache")->as_string(), "hit");
  EXPECT_EQ(comparable(*second.find("report")),
            comparable(*first.find("report")));

  // A different seed is a different job, not a stale hit.
  client.send(
      R"({"type":"optimize","circuit":"x2","options":{"seed":99}})");
  EXPECT_EQ(client.recv().find("cache")->as_string(), "miss");
}

TEST_F(ServiceTest, BlifAndVerilogSubmissionsShareOneCacheEntry) {
  const Library lib = build_compass_library();
  const Network parsed = read_blif_string(kDemoBlif);
  const std::string verilog = write_verilog_string(parsed, lib);

  Json::Object blif_req;
  blif_req["type"] = Json("optimize");
  blif_req["netlist"] = Json(std::string(kDemoBlif));
  Json::Object verilog_req;
  verilog_req["type"] = Json("optimize");
  verilog_req["netlist"] = Json(verilog);
  verilog_req["format"] = Json("verilog");

  Client client(port());
  client.send(Json(blif_req).dump());
  Json first = client.recv();
  ASSERT_EQ(first.find("type")->as_string(), "result") << first.dump();
  EXPECT_EQ(first.find("cache")->as_string(), "miss");

  // The same circuit as Verilog text: content addressing must hit.
  client.send(Json(verilog_req).dump());
  Json second = client.recv();
  ASSERT_EQ(second.find("type")->as_string(), "result") << second.dump();
  EXPECT_EQ(second.find("cache")->as_string(), "hit");
  EXPECT_EQ(comparable(*second.find("report")),
            comparable(*first.find("report")));
}

/// One line per live node in id order (name, cell, function, fanin and
/// fanout ids), then the output ports.
std::string structure(const Network& net) {
  std::ostringstream out;
  net.for_each_node([&](const Node& n) {
    out << n.id << ' ' << n.name << ' ' << n.cell << ' ' << n.function.bits
        << " <-";
    for (NodeId f : n.fanins) out << ' ' << f;
    out << " ->";
    for (NodeId f : n.fanouts) out << ' ' << f;
    out << '\n';
  });
  for (const OutputPort& port : net.outputs())
    out << port.name << " = " << port.driver << '\n';
  return out.str();
}

/// The resolver parses and hashes an unmapped inline netlist; mapping it
/// is left to the first network() call, which a cache hit never makes.
TEST(ResolveJob, InlineBlifMapsOnFirstUse) {
  const Library lib = build_compass_library();
  CircuitSource source;
  source.netlist = kDemoBlif;
  ResolvedJob job = resolve_job(source, lib, nullptr);
  EXPECT_FALSE(job.mapped.has_value());

  Network parsed = read_blif_string(kDemoBlif);
  EXPECT_EQ(job.key.topology, topology_hash(parsed));
  EXPECT_EQ(job.key.mapping, mapping_fingerprint(parsed));
  sweep_network(parsed);
  const PaperSetupResult setup = map_paper_setup(parsed, lib);
  EXPECT_EQ(structure(job.network()), structure(setup.mapped));
  EXPECT_EQ(&job.network(), &*job.mapped);
}

TEST(ResolveJob, MappedVerilogIsUsedAsSent) {
  const Library lib = build_compass_library();
  const std::string verilog =
      write_verilog_string(build_mcnc_circuit(lib, *find_mcnc("x2")), lib);
  CircuitSource source;
  source.netlist = verilog;
  source.format = "verilog";
  ResolvedJob job = resolve_job(source, lib, nullptr);
  ASSERT_TRUE(job.mapped.has_value());
  const Network parsed = read_verilog_string(verilog, lib);
  EXPECT_EQ(structure(*job.mapped), structure(parsed));
  EXPECT_EQ(job.key.topology, topology_hash(parsed));
  EXPECT_EQ(job.key.mapping, mapping_fingerprint(parsed));
}

TEST_F(ServiceTest, NetlistThatMapsToNoGatesIsRejected) {
  // y = f(a, b) = a: one gate in the text, none once mapped.
  Json::Object request;
  request["type"] = Json("optimize");
  request["id"] = Json(5);
  request["netlist"] =
      Json(std::string(".model wire\n.inputs a b\n.outputs y\n"
                       ".names a b y\n1- 1\n.end\n"));
  Client client(port());
  for (int attempt = 0; attempt < 2; ++attempt) {
    client.send(Json(request).dump());
    const Json reply = client.recv();
    ASSERT_EQ(reply.find("type")->as_string(), "error") << reply.dump();
    EXPECT_EQ(reply.find("message")->as_string(),
              "netlist has no gates to optimize");
    EXPECT_EQ(reply.find("code"), nullptr) << reply.dump();
    EXPECT_EQ(reply.find("id")->as_int(), 5);
  }
  client.send(R"({"type":"ping"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "pong");
}

/// A chain of `gates` NANDs, each reading the two nets before it: the
/// shape whose area-recovery cost (a cone read twice counts twice) grows
/// like the Fibonacci numbers and overflows past 1,467 gates.
std::string reconvergent_chain(int gates) {
  std::ostringstream text;
  text << ".model fib\n.inputs a b\n.outputs n" << gates - 1 << '\n';
  const auto net = [&](int i) {
    if (i < 0)
      text << (i == -2 ? "a" : "b");
    else
      text << 'n' << i;
  };
  for (int i = 0; i < gates; ++i) {
    text << ".names ";
    net(i - 2);
    text << ' ';
    net(i - 1);
    text << ' ';
    net(i);
    text << "\n11 0\n";
  }
  text << ".end\n";
  return text.str();
}

TEST_F(ServiceTest, ReconvergentInlineNetlistGetsAResult) {
  Json::Object request;
  request["type"] = Json("optimize");
  request["netlist"] = Json(reconvergent_chain(2000));
  request["algos"] = Json(Json::Array{Json("cvs")});
  Client client(port());
  client.send(Json(request).dump());
  const Json reply = client.recv();
  ASSERT_EQ(reply.find("type")->as_string(), "result") << reply.dump();
  client.send(R"({"type":"ping"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "pong");
}

TEST_F(ServiceTest, ReturnNetlistRoundTrips) {
  Json::Object request;
  request["type"] = Json("optimize");
  request["netlist"] = Json(std::string(kDemoBlif));
  request["return_netlist"] = Json(true);
  Json::Array algos;
  algos.emplace_back("dscale");
  request["algos"] = Json(std::move(algos));

  Client client(port());
  client.send(Json(request).dump());
  Json response = client.recv();
  ASSERT_EQ(response.find("type")->as_string(), "result")
      << response.dump();
  ASSERT_NE(response.find("netlist"), nullptr);
  ASSERT_NE(response.find("low_gates"), nullptr);
  // The returned netlist is valid BLIF (converters materialized).
  EXPECT_NO_THROW(read_blif_string(response.find("netlist")->as_string()));
  const Json& metrics = *response.find("metrics")->find("dscale");
  EXPECT_GT(metrics.find("power_uw")->as_double(), 0.0);
  EXPECT_GT(metrics.find("area_um2")->as_double(), 0.0);
}

TEST_F(ServiceTest, BatchStreamsEveryRowMatchingTheSuite) {
  SuiteOptions suite;
  suite.circuits = {"x2", "z4ml", "pm1"};
  suite.num_threads = 1;
  const SuiteReport reference = run_suite(suite);

  Client client(port());
  client.send(
      R"({"type":"batch","circuits":["x2","z4ml","pm1"],"id":"B"})");
  std::set<std::uint64_t> seen;
  bool done = false;
  while (!done) {
    Json response = client.recv();
    const std::string type = response.find("type")->as_string();
    ASSERT_TRUE(type == "batch_item" || type == "batch_done")
        << response.dump();
    EXPECT_EQ(response.find("id")->as_string(), "B");
    if (type == "batch_done") {
      EXPECT_EQ(response.find("count")->as_uint(), 3u);
      EXPECT_EQ(response.find("failed")->as_uint(), 0u);
      done = true;
      continue;
    }
    ASSERT_EQ(response.find("error"), nullptr) << response.dump();
    const std::uint64_t index = response.find("index")->as_uint();
    ASSERT_LT(index, reference.rows.size());
    EXPECT_TRUE(seen.insert(index).second) << "duplicate item";
    EXPECT_EQ(
        comparable(*response.find("report")),
        comparable(report_json(reference.rows[index], true, true, true)));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST_F(ServiceTest, PipelineRequestsRunHybridsWithTrajectory) {
  Client client(port());
  client.send(
      R"({"type":"optimize","circuit":"x2",)"
      R"("pipeline":"cvs | gscale(area_budget=0.05) | dscale"})");
  Json response = client.recv();
  ASSERT_EQ(response.find("type")->as_string(), "result")
      << response.dump();
  // No paper columns: the report carries the shared columns only...
  const Json& report = *response.find("report");
  EXPECT_EQ(report.find("cvs"), nullptr);
  EXPECT_GT(report.find("org_power_uw")->as_double(), 0.0);
  // ...and the trajectory carries one point per executed pass.
  const Json& trajectory = *response.find("trajectory");
  ASSERT_EQ(trajectory.as_array().size(), 1u);
  const Json& cell = trajectory.as_array()[0];
  EXPECT_EQ(cell.find("label")->as_string(), "pipeline");
  const Json::Array& passes = cell.find("passes")->as_array();
  ASSERT_EQ(passes.size(), 3u);
  EXPECT_EQ(passes[0].find("pass")->as_string(), "cvs");
  EXPECT_EQ(passes[1].find("pass")->as_string(), "gscale");
  EXPECT_EQ(passes[2].find("pass")->as_string(), "dscale");
  // Monotone trajectory: each stage ends at or below the previous power.
  EXPECT_LE(passes[2].find("power_uw")->as_double(),
            passes[0].find("power_uw")->as_double() + 1e-6);
  // Final metrics for the cell are attached under its label.
  EXPECT_NE(response.find("metrics")->find("pipeline"), nullptr);

  // The same pipeline again: canonical fingerprint makes it a hit.
  client.send(
      R"({"type":"optimize","circuit":"x2",)"
      R"("pipeline":"cvs|gscale(area_budget=0.05)|dscale"})");
  EXPECT_EQ(client.recv().find("cache")->as_string(), "hit");
}

TEST_F(ServiceTest, LegacyAlgosAndPipelineSpellingShareOneCacheEntry) {
  Client client(port());
  client.send(R"({"type":"optimize","circuit":"z4ml","algos":["dscale"]})");
  Json first = client.recv();
  ASSERT_EQ(first.find("type")->as_string(), "result") << first.dump();
  EXPECT_EQ(first.find("cache")->as_string(), "miss");

  // Same job, spelled as a pipeline: must hit and replay the same body.
  client.send(R"({"type":"optimize","circuit":"z4ml","pipeline":"dscale"})");
  Json second = client.recv();
  EXPECT_EQ(second.find("cache")->as_string(), "hit");
  EXPECT_EQ(comparable(*second.find("report")),
            comparable(*first.find("report")));

  // Algo order never splits entries either.
  client.send(
      R"({"type":"optimize","circuit":"z4ml","algos":["gscale","cvs"]})");
  EXPECT_EQ(client.recv().find("cache")->as_string(), "miss");
  client.send(
      R"({"type":"optimize","circuit":"z4ml","algos":["cvs","gscale"]})");
  EXPECT_EQ(client.recv().find("cache")->as_string(), "hit");
}

TEST_F(ServiceTest, PipelineReturnNetlistAndBatch) {
  // return_netlist composes with hybrid pipelines (a pipeline is one
  // cell, so the exactly-one-result invariant holds by construction).
  Json::Object request;
  request["type"] = Json("optimize");
  request["netlist"] = Json(std::string(kDemoBlif));
  request["pipeline"] = Json("cvs | dscale | trim");
  request["return_netlist"] = Json(true);
  Client client(port());
  client.send(Json(request).dump());
  Json response = client.recv();
  ASSERT_EQ(response.find("type")->as_string(), "result")
      << response.dump();
  ASSERT_NE(response.find("netlist"), nullptr);
  EXPECT_NO_THROW(read_blif_string(response.find("netlist")->as_string()));

  // Batch fans a pipeline across circuits.
  client.send(
      R"({"type":"batch","circuits":["x2","z4ml"],)"
      R"("pipeline":"cvs | dscale","id":"P"})");
  int items = 0;
  bool done = false;
  while (!done) {
    Json line = client.recv();
    const std::string type = line.find("type")->as_string();
    if (type == "batch_done") {
      EXPECT_EQ(line.find("failed")->as_uint(), 0u);
      done = true;
      continue;
    }
    ASSERT_EQ(type, "batch_item") << line.dump();
    ASSERT_EQ(line.find("error"), nullptr) << line.dump();
    const Json& trajectory = *line.find("trajectory");
    EXPECT_EQ(trajectory.as_array()[0]
                  .find("passes")->as_array().size(),
              2u);
    ++items;
  }
  EXPECT_EQ(items, 2);
}

TEST_F(ServiceTest, PipelineErrorsAreContained) {
  Client client(port());
  // Unknown pass.
  client.send(
      R"({"type":"optimize","circuit":"x2","pipeline":"cvs | warp"})");
  Json error = client.recv();
  EXPECT_EQ(error.find("type")->as_string(), "error");
  EXPECT_NE(error.find("message")->as_string().find("unknown pass"),
            std::string::npos);
  // Unknown option, malformed grammar, algos+pipeline conflict.
  client.send(
      R"x({"type":"optimize","circuit":"x2","pipeline":"cvs(bogus=1)"})x");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  client.send(
      R"({"type":"optimize","circuit":"x2","pipeline":"cvs |"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  client.send(
      R"({"type":"optimize","circuit":"x2",)"
      R"("algos":["cvs"],"pipeline":"dscale"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  // The connection still serves.
  client.send(R"({"type":"ping"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "pong");
}

TEST_F(ServiceTest, ErrorContainment) {
  Client client(port());
  // Malformed JSON.
  client.send("this is not json");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  // Unknown field (strict parsing).
  client.send(R"({"type":"optimize","circuit":"x2","bogus":1})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  // Unknown circuit.
  client.send(R"({"type":"optimize","circuit":"nope"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  // Malformed netlist (duplicate driver).
  Json::Object request;
  request["type"] = Json("optimize");
  request["netlist"] = Json(std::string(
      ".model m\n.inputs a b\n.outputs y\n"
      ".names a y\n1 1\n.names b y\n1 1\n.end\n"));
  client.send(Json(request).dump());
  Json error = client.recv();
  EXPECT_EQ(error.find("type")->as_string(), "error");
  // return_netlist with several algorithms is rejected.
  client.send(
      R"({"type":"optimize","circuit":"x2","return_netlist":true})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "error");
  // The connection survived all of it.
  client.send(R"({"type":"ping"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "pong");
}

TEST_F(ServiceTest, SupplyLadderJobsRunAndKeySeparately) {
  Client client(port());
  // A 3-level ladder end to end: the daemon maps, optimizes, and answers
  // against the requested operating point.
  client.send(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":"5.0,4.3,3.6"}})");
  Json first = client.recv();
  ASSERT_EQ(first.find("type")->as_string(), "result") << first.dump();
  EXPECT_EQ(first.find("cache")->as_string(), "miss");
  EXPECT_GT(first.find("report")->find("org_power_uw")->as_double(), 0.0);

  // The same ladder spelled as an array hits the same entry.
  client.send(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":[5, 4.3, 3.6]}})");
  Json second = client.recv();
  EXPECT_EQ(second.find("cache")->as_string(), "hit");
  EXPECT_EQ(comparable(*second.find("report")),
            comparable(*first.find("report")));

  // A different ladder is a different job; the default ladder spelled
  // explicitly aliases with the ladder-free request.
  client.send(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":"5.0,4.3,4.0"}})");
  EXPECT_EQ(client.recv().find("cache")->as_string(), "miss");
  client.send(R"({"type":"optimize","circuit":"x2"})");
  EXPECT_EQ(client.recv().find("cache")->as_string(), "miss");
  client.send(
      R"({"type":"optimize","circuit":"x2",)"
      R"("options":{"supplies":"5,4.3"}})");
  EXPECT_EQ(client.recv().find("cache")->as_string(), "hit");

  // Deeper rungs open strictly more saving on this circuit than the
  // dual ladder (that is the point of the generalization).
  client.send(
      R"({"type":"optimize","circuit":"z4ml","algos":["dscale"],)"
      R"("options":{"supplies":"5.0,4.3,3.6"}})");
  Json three = client.recv();
  client.send(R"({"type":"optimize","circuit":"z4ml","algos":["dscale"]})");
  Json dual = client.recv();
  EXPECT_GE(three.find("report")->find("dscale")->find("improve_pct")
                ->as_double(),
            dual.find("report")->find("dscale")->find("improve_pct")
                ->as_double());
}

TEST_F(ServiceTest, MalformedSuppliesRejectedVerbatim) {
  Client client(port());
  const auto expect_error = [&](const std::string& supplies,
                                const std::string& message) {
    client.send(R"({"type":"optimize","circuit":"x2",)"
                R"("options":{"supplies":)" +
                supplies + "}}");
    Json response = client.recv();
    ASSERT_EQ(response.find("type")->as_string(), "error")
        << response.dump();
    EXPECT_EQ(response.find("message")->as_string(), message);
  };
  expect_error(R"("4.3,5.0")", "supplies must be strictly descending");
  expect_error(R"([5.0,5.0])", "supplies must be strictly descending");
  expect_error(R"("5.0")", "supplies must list between 2 and 8 voltages");
  expect_error(R"("5.0,0.5")", "supplies out of range");
  expect_error(R"("5.0,4.3V")", "supplies out of range");
  // The connection still serves.
  client.send(R"({"type":"ping"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "pong");
}

TEST_F(ServiceTest, OversizedLineRejectedVerbatim) {
  ServiceConfig config;
  config.num_threads = 2;
  config.max_line_bytes = 1024;
  start_service(config);

  Client client(port());
  client.send(std::string(4096, 'x'));  // one 4 KiB line, no JSON at all
  Json error = client.recv();
  ASSERT_EQ(error.find("type")->as_string(), "error") << error.dump();
  // The message is the protocol-verbatim LineTooLongError text.
  EXPECT_EQ(error.find("message")->as_string(),
            "line too long: exceeds the 1024-byte limit");
  EXPECT_EQ(error.find("code")->as_string(), "line_too_long");
  // The unread remainder makes resync impossible: connection closes.
  std::string line;
  EXPECT_FALSE(client.recv_line(&line));

  // A maximal-but-legal line still round-trips on a fresh connection.
  Client ok(port());
  ok.send(R"({"type":"ping"})");
  EXPECT_EQ(ok.recv().find("type")->as_string(), "pong");
}

TEST_F(ServiceTest, OverloadedRejectionAtWatermark) {
  ServiceConfig config;
  config.num_threads = 1;
  config.max_backlog = 2;
  start_service(config);

  // Saturate the single worker well past the watermark: six uncached
  // jobs, each several times the default simulation cost.
  Client busy(port());
  busy.send(
      R"({"type":"batch","circuits":["x2","x2","x2","x2","x2","x2"],)"
      R"("use_cache":false,"options":{"vectors":262144},"id":"slow"})");
  await_stats([](const Json& stats) {
    return stats.find("pool")->find("inflight")->as_uint() >= 2;
  });

  // The gate answers immediately — no queue wait, no computation.
  Client rejected(port());
  const auto sent = std::chrono::steady_clock::now();
  rejected.send(R"({"type":"optimize","circuit":"z4ml","id":"late"})");
  Json error = rejected.recv();
  const double wait_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - sent)
          .count();
  ASSERT_EQ(error.find("type")->as_string(), "error") << error.dump();
  EXPECT_EQ(error.find("code")->as_string(), "overloaded");
  EXPECT_EQ(error.find("id")->as_string(), "late");
  EXPECT_NE(error.find("message")->as_string().find("overloaded"),
            std::string::npos);
  EXPECT_LT(wait_ms, 100.0);

  // The saturating batch itself still completes in full.
  int items = 0;
  while (true) {
    Json line = busy.recv();
    if (line.find("type")->as_string() == "batch_done") {
      EXPECT_EQ(line.find("count")->as_uint(), 6u);
      break;
    }
    ++items;
  }
  EXPECT_EQ(items, 6);
  const Json stats = await_stats([](const Json&) { return true; });
  EXPECT_GE(stats.find("pool")->find("overload_rejections")->as_uint(),
            1u);
}

TEST_F(ServiceTest, DeadlineExpiresInQueue) {
  ServiceConfig config;
  config.num_threads = 1;  // default watermark = 8: admission passes
  start_service(config);

  // One long uncached job owns the only worker for hundreds of ms.
  Client busy(port());
  busy.send(R"({"type":"optimize","circuit":"x2","use_cache":false,)"
            R"("options":{"vectors":1048576},"id":"long"})");
  // Wait until the worker has actually *dequeued* the long job —
  // dvsd_queue_wait_ms ticks exactly once per dequeue, so count >= 1
  // proves the only worker is busy executing. (`inflight >= 1` is not
  // enough: with the pool's LIFO own-deque pop, a still-queued long job
  // would let the later 1 ms z4ml run first, within its deadline.)
  for (int spins = 0;; ++spins) {
    ASSERT_LT(spins, 5000) << "long job never dequeued";
    if (metric_value(fetch_metrics(), "dvsd_queue_wait_ms_count") >= 1.0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A 1 ms deadline cannot survive that queue wait: the job is admitted,
  // then fails with the structured timeout when the worker dequeues it.
  Client impatient(port());
  impatient.send(
      R"({"type":"optimize","circuit":"z4ml","deadline_ms":1,"id":"dl"})");
  Json error = impatient.recv();
  ASSERT_EQ(error.find("type")->as_string(), "error") << error.dump();
  EXPECT_EQ(error.find("code")->as_string(), "deadline_exceeded");
  EXPECT_EQ(error.find("id")->as_string(), "dl");

  Json done = busy.recv();  // the long job itself is unaffected
  EXPECT_EQ(done.find("type")->as_string(), "result") << done.dump();
  const Json stats = await_stats([](const Json&) { return true; });
  EXPECT_GE(stats.find("pool")->find("deadline_expired")->as_uint(), 1u);
}

TEST_F(ServiceTest, GracefulStopDrainsInFlightBatch) {
  // SIGTERM-shaped stop: request_stop() + stop() while a batch is mid
  // flight.  The drain must let the session finish and answer every item
  // (plus batch_done) before the socket closes.  Each item simulates
  // far more vectors than the default, so the batch stays in flight long
  // enough for the stats poll below to see it there, however fast the
  // optimization passes run.
  Client client(port());
  client.send(
      R"({"type":"batch","circuits":["x2","z4ml","pm1"],)"
      R"("options":{"vectors":1048576},"id":"drain"})");
  await_stats([](const Json& stats) {
    return stats.find("pool")->find("inflight")->as_uint() >= 1;
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

TEST_F(ServiceTest, StatsAndMetricsAgree) {
  Client client(port());
  client.send(R"({"type":"optimize","circuit":"x2","id":1})");
  ASSERT_EQ(client.recv().find("cache")->as_string(), "miss");
  client.send(R"({"type":"optimize","circuit":"x2","id":2})");
  ASSERT_EQ(client.recv().find("cache")->as_string(), "hit");

  // Same connection, back to back on a quiescent daemon: the exposition
  // and the stats object are views over the same registry, so every
  // shared counter must agree exactly.
  client.send(R"({"type":"metrics"})");
  const std::string text = client.recv().find("text")->as_string();
  client.send(R"({"type":"stats"})");
  const Json stats = client.recv();

  EXPECT_EQ(metric_value(text, "dvsd_jobs_completed_total"),
            static_cast<double>(
                stats.find("jobs")->find("completed")->as_uint()));
  EXPECT_EQ(metric_value(text, "dvsd_jobs_failed_total"),
            static_cast<double>(
                stats.find("jobs")->find("failed")->as_uint()));
  EXPECT_EQ(
      metric_value(text, "dvsd_cache_hits_total{tier=\"memory\"}"),
      static_cast<double>(stats.find("cache")->find("hits")->as_uint()));
  EXPECT_EQ(
      metric_value(text, "dvsd_cache_misses_total{tier=\"memory\"}"),
      static_cast<double>(
          stats.find("cache")->find("misses")->as_uint()));
  EXPECT_EQ(metric_value(text, "dvsd_connections_total"),
            static_cast<double>(stats.find("connections")->as_uint()));
  // The stats request itself is the only request between the two reads.
  EXPECT_EQ(metric_value(text, "dvsd_requests_total") + 1.0,
            static_cast<double>(stats.find("requests_total")->as_uint()));
  EXPECT_EQ(metric_value(text, "dvsd_build_info{version=\"" +
                                   std::string(kDvsVersion) + "\"}"),
            1.0);
  // One queue wait and one optimize service time per optimize request.
  EXPECT_EQ(metric_value(text, "dvsd_queue_wait_ms_count"), 2.0);
  EXPECT_EQ(
      metric_value(text, "dvsd_service_ms_count{type=\"optimize\"}"),
      2.0);
}

TEST_F(ServiceTest, MetricsEndpointServesExposition) {
  ServiceConfig config;
  config.metrics_port = 0;  // kernel-assigned
  start_service(config);
  const int http_port = service_->metrics_port();
  ASSERT_GT(http_port, 0);

  Socket http = Socket::connect_tcp("127.0.0.1", http_port);
  http.send_all("GET /metrics HTTP/1.0\r\n\r\n");
  LineReader reader(&http, 1u << 20);
  std::string line;
  std::string reply;
  while (reader.read_line(&line)) reply += line + "\n";
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(reply.find("# TYPE dvsd_queue_wait_ms histogram"),
            std::string::npos);
  EXPECT_NE(reply.find("# TYPE dvsd_service_ms histogram"),
            std::string::npos);
  EXPECT_NE(reply.find("dvsd_pool_threads"), std::string::npos);
  EXPECT_NE(reply.find("dvsd_requests_total"), std::string::npos);
}

TEST_F(ServiceTest, TraceSpansTileTheRequest) {
  Client client(port());
  client.send(R"({"type":"optimize","circuit":"x2","trace":true,"id":1})");
  Json miss = client.recv();
  ASSERT_EQ(miss.find("type")->as_string(), "result") << miss.dump();
  EXPECT_EQ(miss.find("cache")->as_string(), "miss");
  const Json* trace = miss.find("trace");
  ASSERT_NE(trace, nullptr);
  double depth0 = 0.0;
  double prev_start = -1.0;
  std::set<std::string> phases;
  for (const Json& span : trace->as_array()) {
    const double start = span.find("start_ms")->as_double();
    EXPECT_GE(start, prev_start);  // spans arrive sorted by start
    prev_start = start;
    if (span.find("depth")->as_int() == 0) {
      depth0 += span.find("dur_ms")->as_double();
      phases.insert(span.find("name")->as_string());
    }
  }
  for (const char* phase : {"parse", "admission", "queue_wait",
                            "resolve", "cache_lookup", "execute",
                            "store", "respond"})
    EXPECT_TRUE(phases.count(phase)) << phase;
  // The tiling contract: depth-0 phases partition the request, so their
  // durations sum to the reported wall time (5% / 1 ms slack for the
  // instructions between clock reads).
  const double wall = miss.find("wall_ms")->as_double();
  EXPECT_NEAR(depth0, wall, std::max(0.05 * wall, 1.0));

  // A hit never executes the flow; and without trace:true the response
  // carries no trace at all.
  client.send(R"({"type":"optimize","circuit":"x2","trace":true,"id":2})");
  Json hit = client.recv();
  EXPECT_EQ(hit.find("cache")->as_string(), "hit");
  ASSERT_NE(hit.find("trace"), nullptr);
  for (const Json& span : hit.find("trace")->as_array())
    EXPECT_NE(span.find("name")->as_string(), "execute");
  client.send(R"({"type":"optimize","circuit":"x2","id":3})");
  EXPECT_EQ(client.recv().find("trace"), nullptr);

  // A traced pipeline reoptimize runs the same phases, from parse to
  // respond (its snapshot is the resolve phase), and they tile its wall
  // time too.
  client.send(R"({"type":"open_design","circuit":"x2","name":"traced"})");
  ASSERT_EQ(client.recv().find("type")->as_string(), "design_opened");
  client.send(
      R"({"type":"reoptimize","design":"traced","algos":["cvs"],)"
      R"("trace":true})");
  const Json reopt = client.recv();
  ASSERT_EQ(reopt.find("type")->as_string(), "reoptimized") << reopt.dump();
  ASSERT_NE(reopt.find("trace"), nullptr);
  double reopt_depth0 = 0.0;
  std::set<std::string> reopt_phases;
  for (const Json& span : reopt.find("trace")->as_array())
    if (span.find("depth")->as_int() == 0) {
      reopt_depth0 += span.find("dur_ms")->as_double();
      reopt_phases.insert(span.find("name")->as_string());
    }
  for (const char* phase :
       {"parse", "admission", "queue_wait", "resolve", "respond"})
    EXPECT_TRUE(reopt_phases.count(phase)) << phase;
  const double reopt_wall = reopt.find("wall_ms")->as_double();
  EXPECT_NEAR(reopt_depth0, reopt_wall, std::max(0.05 * reopt_wall, 1.0));
}

/// An inline netlist is mapped inside the execute phase of a miss, under
/// a depth-1 `map` span; a hit never maps, so its trace has no such span.
TEST_F(ServiceTest, InlineMissTracesItsMapping) {
  Json::Object request;
  request["type"] = Json("optimize");
  request["netlist"] = Json(std::string(kDemoBlif));
  request["algos"] = Json(Json::Array{Json("cvs")});
  request["trace"] = Json(true);
  Client client(port());
  for (const char* cache : {"miss", "hit"}) {
    client.send(Json(request).dump());
    const Json reply = client.recv();
    ASSERT_EQ(reply.find("type")->as_string(), "result") << reply.dump();
    EXPECT_EQ(reply.find("cache")->as_string(), cache);
    const Json* execute = nullptr;
    std::vector<const Json*> maps;
    double depth0 = 0.0;
    for (const Json& span : reply.find("trace")->as_array()) {
      const std::string& name = span.find("name")->as_string();
      if (span.find("depth")->as_int() == 0) {
        depth0 += span.find("dur_ms")->as_double();
        if (name == "execute") execute = &span;
      }
      if (name == "map") maps.push_back(&span);
    }
    const double wall = reply.find("wall_ms")->as_double();
    EXPECT_NEAR(depth0, wall, std::max(0.05 * wall, 1.0));
    if (std::string(cache) == "hit") {
      EXPECT_EQ(execute, nullptr);
      EXPECT_TRUE(maps.empty());
      continue;
    }
    ASSERT_NE(execute, nullptr);
    ASSERT_EQ(maps.size(), 1u);
    const auto start = [](const Json* span) {
      return span->find("start_ms")->as_double();
    };
    const auto end = [&](const Json* span) {
      return start(span) + span->find("dur_ms")->as_double();
    };
    EXPECT_EQ(maps[0]->find("depth")->as_int(), 1);
    EXPECT_GE(start(maps[0]), start(execute) - 1e-6);
    EXPECT_LE(end(maps[0]), end(execute) + 1e-6);
  }
}

/// Design pool jobs run through the one job path: open_design and each
/// pipeline reoptimize record a queue wait, and a pipeline reoptimize
/// probes the memory tier like an optimize does.
TEST_F(ServiceTest, DesignJobsRecordQueueWaitAndCacheLookups) {
  const char* kQueue = "dvsd_queue_wait_ms_count";
  const char* kLookup = "dvsd_cache_lookup_ms_count{tier=\"memory\"}";
  const std::string before = fetch_metrics();
  Client client(port());
  client.send(R"({"type":"open_design","circuit":"x2","name":"m"})");
  ASSERT_EQ(client.recv().find("type")->as_string(), "design_opened");
  for (const char* cache : {"miss", "hit"}) {
    client.send(R"({"type":"reoptimize","design":"m","algos":["cvs"]})");
    const Json reply = client.recv();
    ASSERT_EQ(reply.find("type")->as_string(), "reoptimized")
        << reply.dump();
    EXPECT_EQ(reply.find("cache")->as_string(), cache);
  }
  const std::string after = fetch_metrics();
  EXPECT_EQ(metric_value(after, kQueue) - metric_value(before, kQueue), 3.0);
  EXPECT_EQ(metric_value(after, kLookup) - metric_value(before, kLookup),
            2.0);
}

TEST_F(ServiceTest, BatchTraceStreamsPerItemSpans) {
  Client client(port());
  client.send(
      R"({"type":"batch","circuits":["x2","z4ml","pm1"],"trace":true})");
  int items = 0;
  while (true) {
    Json line = client.recv();
    const std::string type = line.find("type")->as_string();
    if (type == "batch_done") break;
    ASSERT_EQ(type, "batch_item") << line.dump();
    ASSERT_EQ(line.find("error"), nullptr) << line.dump();
    ++items;
    // Items complete out of order across workers, and workers append
    // spans concurrently — each item's trace must still come out sorted
    // and tiling its own wall time.
    const Json* trace = line.find("trace");
    ASSERT_NE(trace, nullptr) << line.dump();
    double depth0 = 0.0;
    double prev_start = -1.0;
    for (const Json& span : trace->as_array()) {
      const double start = span.find("start_ms")->as_double();
      EXPECT_GE(start, prev_start);
      prev_start = start;
      if (span.find("depth")->as_int() == 0)
        depth0 += span.find("dur_ms")->as_double();
    }
    const double wall = line.find("wall_ms")->as_double();
    EXPECT_NEAR(depth0, wall, std::max(0.05 * wall, 1.0));
  }
  EXPECT_EQ(items, 3);
}

TEST_F(ServiceTest, ShutdownRequestStopsTheService) {
  Client client(port());
  client.send(R"({"type":"shutdown"})");
  EXPECT_EQ(client.recv().find("type")->as_string(), "bye");
  service_->wait();  // returns because the stop flag is set
  service_->stop();
  service_.reset();
}

}  // namespace
}  // namespace dvs
