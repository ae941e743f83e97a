// The resolver's memo of inline netlists (service/key_memo.hpp): a
// repeated text resolves without a parse, keyed on its whole text, its
// format and the effective library; its slots stay within the byte
// budget, oldest out first; and a miss whose text the memo knew parses
// late yet answers exactly what a cold daemon answers.
#include <gtest/gtest.h>

#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "library/library.hpp"
#include "netlist/blif.hpp"
#include "netlist/verilog.hpp"
#include "service/key_memo.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"

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

/// kDemoBlif with one byte replaced: `from` must occur in it once.
std::string demo_with(const std::string& from, const std::string& to) {
  std::string text = kDemoBlif;
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(text.find(from, at + 1), std::string::npos);
  EXPECT_EQ(from.size(), to.size());
  return text.replace(at, from.size(), to);
}

CircuitSource inline_source(std::string text, std::string format = "blif") {
  CircuitSource source;
  source.netlist = std::move(text);
  source.format = std::move(format);
  return source;
}

TEST(KeyMemo, TextsOneByteApartGetTheirOwnParseAndKey) {
  const Library lib = build_compass_library();
  KeyMemo memo(1u << 20);
  // Same length; t1 = a AND b becomes t1 = a AND NOT b.
  const CircuitSource a = inline_source(kDemoBlif);
  const CircuitSource b = inline_source(demo_with("t1\n11 1", "t1\n10 1"));
  ASSERT_EQ(a.netlist.size(), b.netlist.size());

  const ResolvedJob first_a = resolve_job(a, lib, &memo);
  const ResolvedJob first_b = resolve_job(b, lib, &memo);
  EXPECT_EQ(memo.stats().inline_parses, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);
  EXPECT_EQ(first_a.unparsed, nullptr);
  EXPECT_NE(first_a.key.topology, first_b.key.topology);

  const ResolvedJob again_a = resolve_job(a, lib, &memo);
  const ResolvedJob again_b = resolve_job(b, lib, &memo);
  const KeyMemoStats stats = memo.stats();
  EXPECT_EQ(stats.inline_parses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, a.netlist.size() + b.netlist.size());
  EXPECT_EQ(again_a.unparsed, &a);
  EXPECT_EQ(again_b.unparsed, &b);
  EXPECT_EQ(again_a.key, first_a.key);
  EXPECT_EQ(again_b.key, first_b.key);
}

TEST(KeyMemo, FormatsAndLaddersNeverShareASlot) {
  const Library lib = build_compass_library();
  KeyMemo memo(1u << 20);
  const CircuitSource blif = inline_source(kDemoBlif);
  const ResolvedJob at_default = resolve_job(blif, lib, &memo);

  // The same bytes as Verilog are parsed as Verilog, and fail as such.
  const CircuitSource as_verilog = inline_source(kDemoBlif, "verilog");
  EXPECT_ANY_THROW(resolve_job(as_verilog, lib, &memo));
  EXPECT_EQ(memo.stats().inline_parses, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);

  // And a Verilog text sent as BLIF is parsed as BLIF.
  const std::string verilog =
      write_verilog_string(build_mcnc_circuit(lib, *find_mcnc("x2")), lib);
  const CircuitSource x2 = inline_source(verilog, "verilog");
  resolve_job(x2, lib, &memo);
  EXPECT_ANY_THROW(resolve_job(inline_source(verilog), lib, &memo));
  EXPECT_EQ(memo.stats().inline_parses, 4u);
  EXPECT_EQ(memo.stats().hits, 0u);

  // A second ladder keys a slot of its own; each ladder then hits its own.
  CircuitSource three_rungs = blif;
  three_rungs.options.supplies = {5.0, 4.3, 3.6};
  const ResolvedJob at_three = resolve_job(three_rungs, lib, &memo);
  EXPECT_EQ(memo.stats().inline_parses, 5u);
  EXPECT_NE(at_three.key.library, at_default.key.library);
  EXPECT_EQ(at_three.key.topology, at_default.key.topology);
  EXPECT_EQ(resolve_job(three_rungs, lib, &memo).key, at_three.key);
  EXPECT_EQ(resolve_job(blif, lib, &memo).key, at_default.key);
  EXPECT_EQ(resolve_job(x2, lib, &memo).unparsed, &x2);
  const KeyMemoStats stats = memo.stats();
  EXPECT_EQ(stats.inline_parses, 5u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(KeyMemo, EvictsTheLeastRecentlyUsedTextWithinItsBudget) {
  KeyMemo memo(100);
  const auto text = [](char c) { return std::string(40, c); };
  const auto parts = [](std::uint64_t topology) {
    return CacheKey{.topology = topology};
  };
  memo.put_inline(text('a'), false, 1, parts(1));
  memo.put_inline(text('b'), false, 1, parts(2));
  memo.put_inline(text('c'), false, 1, parts(3));  // evicts a, the oldest
  KeyMemoStats stats = memo.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);
  EXPECT_FALSE(memo.find_inline(text('a'), false, 1));
  ASSERT_TRUE(memo.find_inline(text('b'), false, 1));  // b is now newest
  EXPECT_EQ(memo.find_inline(text('b'), false, 1)->topology, 2u);

  memo.put_inline(text('d'), false, 1, parts(4));  // evicts c, not b
  EXPECT_FALSE(memo.find_inline(text('c'), false, 1));
  EXPECT_TRUE(memo.find_inline(text('b'), false, 1));
  EXPECT_TRUE(memo.find_inline(text('d'), false, 1));

  // A text larger than the whole budget is not remembered, and evicts
  // nothing; a repeated put refreshes without charging twice.
  memo.put_inline(std::string(101, 'e'), false, 1, parts(5));
  memo.put_inline(text('d'), false, 1, parts(4));
  stats = memo.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.inline_parses, 0u);  // put_inline parses nothing
}

/// A connected test client speaking NDJSON.
class Client {
 public:
  explicit Client(int port)
      : socket_(Socket::connect_tcp("127.0.0.1", port)),
        reader_(&socket_, 64u << 20) {}

  Json call(const Json& request) {
    socket_.send_all(request.dump() + "\n");
    std::string line;
    EXPECT_TRUE(reader_.read_line(&line)) << "connection closed early";
    return Json::parse(line);
  }

 private:
  Socket socket_;
  LineReader reader_;
};

Json optimize_request(const CircuitSource& source, std::uint64_t seed,
                      bool trace = false) {
  Json::Object request;
  request["type"] = Json("optimize");
  request["netlist"] = Json(source.netlist);
  request["format"] = Json(source.format);
  Json::Object options;
  options["seed"] = Json(seed);
  if (!source.options.supplies.empty()) {
    Json::Array supplies;
    for (double v : source.options.supplies) supplies.emplace_back(v);
    options["supplies"] = Json(std::move(supplies));
  }
  request["options"] = Json(std::move(options));
  if (trace) request["trace"] = Json(true);
  return Json(std::move(request));
}

/// A reply without its clock fields: the request id, wall times, the
/// cache tier, the trace, Gscale's seconds and each pass's cpu_ms.
std::string comparable(Json reply) {
  auto& fields = reply.as_object();
  for (const char* clock : {"id", "wall_ms", "cache", "trace"})
    fields.erase(clock);
  if (auto report = fields.find("report"); report != fields.end()) {
    auto& row = report->second.as_object();
    if (auto gscale = row.find("gscale"); gscale != row.end())
      gscale->second.as_object()["seconds"] = Json(0.0);
  }
  if (auto trajectory = fields.find("trajectory"); trajectory != fields.end())
    for (Json& cell : trajectory->second.as_array())
      for (Json& pass : cell.as_object()["passes"].as_array())
        pass.as_object()["cpu_ms"] = Json(0.0);
  return reply.dump();
}

class ResolverService : public ::testing::Test {
 protected:
  void SetUp() override { start(8u << 20); }
  void TearDown() override { stop(); }

  void start(std::size_t cache_bytes) {
    stop();
    ServiceConfig config;
    config.tcp_port = 0;
    config.num_threads = 2;
    config.cache_bytes = cache_bytes;
    service_.emplace(config);
    service_->start();
  }

  void stop() {
    if (!service_) return;
    service_->request_stop();
    service_->stop();
    service_.reset();
  }

  int port() const { return service_->port(); }

  Json stats() {
    return Client(port()).call(Json::parse(R"({"type":"stats"})"));
  }

  std::uint64_t resolver(const Json& stats, const char* field) {
    return stats.find("resolver")->find(field)->as_uint();
  }

  std::optional<Service> service_;
};

TEST_F(ResolverService, RepeatedTextIsResolvedWithoutAParse) {
  const CircuitSource demo = inline_source(kDemoBlif);
  Client client(port());
  EXPECT_EQ(client.call(optimize_request(demo, 7)).find("cache")->as_string(),
            "miss");
  EXPECT_EQ(client.call(optimize_request(demo, 7)).find("cache")->as_string(),
            "hit");
  Json stats_now = stats();
  EXPECT_EQ(resolver(stats_now, "inline_parses"), 1u);
  EXPECT_EQ(resolver(stats_now, "memo_hits"), 1u);

  // A new seed misses the cache: the text is parsed once more, late.
  EXPECT_EQ(client.call(optimize_request(demo, 8)).find("cache")->as_string(),
            "miss");
  stats_now = stats();
  EXPECT_EQ(resolver(stats_now, "inline_parses"), 2u);
  EXPECT_EQ(resolver(stats_now, "memo_hits"), 2u);
  EXPECT_EQ(resolver(stats_now, "memo_entries"), 1u);
  EXPECT_EQ(resolver(stats_now, "memo_bytes"), demo.netlist.size());
}

TEST_F(ResolverService, ErrorsRepeatVerbatim) {
  Client client(port());
  const CircuitSource malformed = inline_source(
      ".model bad\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end\n");
  // y = f(a, b) = a: one gate in the text, none once mapped.
  const CircuitSource no_gates = inline_source(
      ".model wire\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n.end\n");
  std::uint64_t parses = 0, hits = 0;
  for (const CircuitSource* source : {&malformed, &no_gates}) {
    const Json first = client.call(optimize_request(*source, 1));
    const Json again = client.call(optimize_request(*source, 1));
    ASSERT_EQ(first.find("type")->as_string(), "error") << first.dump();
    EXPECT_EQ(again.dump(), first.dump());
    const Json stats_now = stats();
    // A failed parse is never remembered: the malformed text parses
    // twice.  The other parses, is remembered, and its repeat parses late.
    parses += 2;
    hits += source == &malformed ? 0 : 1;
    EXPECT_EQ(resolver(stats_now, "inline_parses"), parses);
    EXPECT_EQ(resolver(stats_now, "memo_hits"), hits);
  }
  EXPECT_EQ(resolver(stats(), "memo_entries"), 1u);
}

TEST_F(ResolverService, MemoStaysWithinCacheBytesOldestOut) {
  // Three texts, each a third of the budget and then some: the memo holds
  // two.  Comments pad the texts; their results fit the cache beside them.
  const auto padded = [](char tag) {
    return inline_source(demo_with("demo", std::string("dem") + tag) + "# " +
                         std::string(20000, tag) + "\n");
  };
  const CircuitSource a = padded('a'), b = padded('b'), c = padded('c');
  const std::size_t text = a.netlist.size();
  start(text * 5 / 2);
  Client client(port());
  for (const CircuitSource* source : {&a, &b, &c}) {
    const Json reply = client.call(optimize_request(*source, 1));
    ASSERT_EQ(reply.find("type")->as_string(), "result") << reply.dump();
  }
  Json stats_now = stats();
  EXPECT_EQ(resolver(stats_now, "memo_entries"), 2u);
  EXPECT_EQ(resolver(stats_now, "memo_bytes"), 2 * text);
  EXPECT_EQ(resolver(stats_now, "inline_parses"), 3u);
  EXPECT_LE(resolver(stats_now, "memo_bytes"),
            stats_now.find("cache")->find("capacity_bytes")->as_uint());

  // b is still known (and becomes the newest); a, the oldest, is not,
  // and bringing it back evicts c.
  EXPECT_EQ(client.call(optimize_request(b, 1)).find("cache")->as_string(),
            "hit");
  EXPECT_EQ(client.call(optimize_request(a, 1)).find("type")->as_string(),
            "result");
  EXPECT_EQ(client.call(optimize_request(b, 2)).find("type")->as_string(),
            "result");
  stats_now = stats();
  // Parses: a, b, c; a again; b's late parse for its new seed.
  EXPECT_EQ(resolver(stats_now, "inline_parses"), 5u);
  EXPECT_EQ(resolver(stats_now, "memo_hits"), 2u);
  EXPECT_EQ(resolver(stats_now, "memo_entries"), 2u);
  EXPECT_EQ(resolver(stats_now, "memo_bytes"), 2 * text);
  EXPECT_EQ(stats_now.find("cache")->find("evictions")->as_uint(), 0u);

  // The exposition mirrors the same counters.
  const std::string exposition =
      Client(port()).call(Json::parse(R"({"type":"metrics"})"))
          .find("text")->as_string();
  for (const auto& [series, field] :
       {std::pair{"dvsd_resolver_inline_parses_total ", "inline_parses"},
        std::pair{"dvsd_resolver_memo_hits_total ", "memo_hits"},
        std::pair{"dvsd_resolver_memo_entries ", "memo_entries"},
        std::pair{"dvsd_resolver_memo_bytes ", "memo_bytes"}}) {
    const std::size_t at = exposition.find(std::string("\n") + series);
    ASSERT_NE(at, std::string::npos) << series;
    EXPECT_EQ(std::stod(exposition.substr(at + 1 + std::string(series).size())),
              static_cast<double>(resolver(stats_now, field)))
        << series;
  }
}

TEST_F(ResolverService, LateParseAnswersLikeAColdDaemon) {
  const Library lib = build_compass_library();
  const Network x2 = build_mcnc_circuit(lib, *find_mcnc("x2"));
  CircuitSource three_rungs = inline_source(write_blif_string(x2));
  three_rungs.options.supplies = {5.0, 4.3, 3.6};
  const struct {
    const char* what;
    CircuitSource source;
    bool maps;
  } cases[] = {
      {"blif", inline_source(write_blif_string(x2)), true},
      {"mapped verilog",
       inline_source(write_verilog_string(x2, lib), "verilog"), false},
      {"blif at 3 rungs", three_rungs, true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    start(8u << 20);
    Json warm;
    {
      Client client(port());
      const Json first = client.call(optimize_request(c.source, 1));
      ASSERT_EQ(first.find("cache")->as_string(), "miss");
      warm = client.call(optimize_request(c.source, 2, /*trace=*/true));
    }
    ASSERT_EQ(warm.find("type")->as_string(), "result") << warm.dump();
    ASSERT_EQ(warm.find("cache")->as_string(), "miss");
    const Json stats_now = stats();
    EXPECT_EQ(resolver(stats_now, "inline_parses"), 2u);
    EXPECT_EQ(resolver(stats_now, "memo_hits"), 1u);

    // The late parse is a depth-1 span inside execute, before any map;
    // the depth-0 phases still tile the request.
    const Json* execute = nullptr;
    const Json* parse = nullptr;
    const Json* map = nullptr;
    double depth0 = 0.0;
    for (const Json& span : warm.find("trace")->as_array()) {
      const std::string& name = span.find("name")->as_string();
      if (span.find("depth")->as_int() == 0) {
        depth0 += span.find("dur_ms")->as_double();
        if (name == "execute") execute = &span;
      } else if (name == "parse_netlist") {
        parse = &span;
      } else if (name == "map") {
        map = &span;
      }
    }
    const double wall = warm.find("wall_ms")->as_double();
    EXPECT_NEAR(depth0, wall, std::max(0.05 * wall, 1.0));
    const auto start_ms = [](const Json* span) {
      return span->find("start_ms")->as_double();
    };
    const auto end_ms = [&](const Json* span) {
      return start_ms(span) + span->find("dur_ms")->as_double();
    };
    ASSERT_NE(execute, nullptr);
    ASSERT_NE(parse, nullptr);
    EXPECT_GE(start_ms(parse), start_ms(execute) - 1e-6);
    EXPECT_LE(end_ms(parse), end_ms(execute) + 1e-6);
    EXPECT_EQ(map != nullptr, c.maps);
    if (map) {
      EXPECT_GE(start_ms(map), end_ms(parse) - 1e-6);
    }

    start(8u << 20);
    const Json cold = Client(port()).call(optimize_request(c.source, 2));
    ASSERT_EQ(cold.find("cache")->as_string(), "miss");
    EXPECT_EQ(resolver(stats(), "inline_parses"), 1u);
    EXPECT_EQ(comparable(warm), comparable(cold));
  }
}

TEST_F(ResolverService, ConcurrentFirstSubmissionsAgree) {
  const Library lib = build_compass_library();
  const CircuitSource source = inline_source(
      write_blif_string(build_mcnc_circuit(lib, *find_mcnc("z4ml"))));
  constexpr int kThreads = 4;
  std::vector<std::string> replies(kThreads);
  std::latch go(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Client client(port());
      go.arrive_and_wait();
      const Json reply = client.call(optimize_request(source, 3));
      EXPECT_EQ(reply.find("type")->as_string(), "result") << reply.dump();
      replies[t] = comparable(reply);
    });
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(replies[t], replies[0]);

  // Each request either parsed at resolve or hit the memo; a hit parses
  // again only when it missed the cache.
  const Json stats_now = stats();
  const std::uint64_t parses = resolver(stats_now, "inline_parses");
  EXPECT_GE(parses, 1u);
  EXPECT_LE(parses, static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(parses + resolver(stats_now, "memo_hits"),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(resolver(stats_now, "memo_entries"), 1u);
  EXPECT_EQ(resolver(stats_now, "memo_bytes"), source.netlist.size());
}

}  // namespace
}  // namespace dvs
