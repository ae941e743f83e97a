// ECO design sessions (service/design_session.hpp): the incremental
// reoptimize path must be indistinguishable — to the last bit of every
// double — from the stateless full recompute, under hundreds of random
// edits; and the handle lifecycle (refcounts, idle expiry, byte-budget
// eviction, drain) must fail with the exact protocol error texts
// README.md documents.  Registry-direct tests drive DesignRegistry;
// socket tests boot a real Service and speak NDJSON.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_matrix.hpp"
#include "library/library.hpp"
#include "service/design_session.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"

namespace dvs {
namespace {

// ---- registry-direct helpers ----

OpenDesignRequest open_circuit(const std::string& circuit,
                               const std::string& name = "") {
  OpenDesignRequest request;
  request.circuit = circuit;
  request.name = name;
  return request;
}

EditRequest one_edit(const std::string& design, DesignEdit edit) {
  EditRequest request;
  request.design = design;
  request.edits.push_back(std::move(edit));
  return request;
}

DesignEdit rung_edit(std::int64_t gate, int rung) {
  DesignEdit edit;
  edit.op = DesignEdit::Op::kRung;
  edit.gate = Json(gate);
  edit.rung = rung;
  return edit;
}

/// First valid gate id at or after `start` (probed with a no-op rung-0
/// edit, which is how a protocol client would discover one too).
std::int64_t find_gate(DesignRegistry& registry, const std::string& design,
                       std::int64_t start = 0) {
  for (std::int64_t id = start; id < start + 4096; ++id) {
    try {
      registry.edit(one_edit(design, rung_edit(id, 0)));
      return id;
    } catch (const ProtocolError&) {
    }
  }
  ADD_FAILURE() << "no gate found from id " << start;
  return -1;
}

Json::Object evaluate(DesignRegistry& registry, const std::string& design,
                      const std::string& mode) {
  ReoptimizeRequest request;
  request.design = design;
  request.mode = mode;
  return registry.reoptimize(request).fields;
}

#define EXPECT_PROTOCOL_ERROR(expression, text)                   \
  try {                                                           \
    expression;                                                   \
    ADD_FAILURE() << "no error from " << #expression;             \
  } catch (const ProtocolError& e) {                              \
    EXPECT_STREQ(text, e.what());                                 \
  }

// ---- incremental == stateless, under random edit streams ----

/// 200 random edit/reoptimize steps per circuit.  After every edit the
/// incremental evaluation (auto mode: the maintained IncrementalSta)
/// must equal the stateless full recompute exactly — not approximately:
/// the same doubles, compared with ==.  A fresh handle replaying the
/// whole edit log from scratch must land on the same numbers too.
TEST(EcoSessionTest, RandomEditsMatchStatelessExactly) {
  const Library lib = build_compass_library();
  const int rungs = lib.supplies().depth();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  Rng rng(0x5e551);

  for (const char* circuit : {"C432", "b9"}) {
    const Json::Object opened = registry.open(open_circuit(circuit));
    const std::string design = opened.at("design").as_string();
    const std::int64_t gates = opened.at("gates").as_int();
    std::vector<DesignEdit> log;  // successful edits, for the replay

    int structural_steps = 0;
    for (int step = 0; step < 200; ++step) {
      // One random edit: mostly rung flips and resizes, occasionally a
      // structural level-converter insertion.
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 1000) << circuit << " step " << step;
        DesignEdit edit;
        const int kind = rng.next_int(0, 19);
        if (kind < 14) {
          edit.op = DesignEdit::Op::kRung;
          edit.rung = rng.next_int(0, rungs - 1);
        } else if (kind < 17) {
          edit.op = rng.next_bool() ? DesignEdit::Op::kUpsize
                                    : DesignEdit::Op::kDownsize;
        } else {
          edit.op = DesignEdit::Op::kInsertLc;
        }
        edit.gate = Json(static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(gates) * 2)));
        try {
          registry.edit(one_edit(design, edit));
        } catch (const ProtocolError&) {
          continue;  // not a gate / at a rail / no fanouts — pick again
        }
        if (edit.op == DesignEdit::Op::kInsertLc) ++structural_steps;
        log.push_back(std::move(edit));
        break;
      }

      const Json::Object incremental = evaluate(registry, design, "auto");
      const Json::Object full = evaluate(registry, design, "full");
      for (const char* key :
           {"power_uw", "arrival_ns", "slack_ns", "area_um2", "tspec_ns",
            "org_power_uw", "improve_pct"})
        EXPECT_EQ(incremental.at(key).as_double(),
                  full.at(key).as_double())
            << circuit << " step " << step << " field " << key;
      for (const char* key : {"low", "level_converters", "resized"})
        EXPECT_EQ(incremental.at(key).as_int(), full.at(key).as_int())
            << circuit << " step " << step << " field " << key;
      EXPECT_EQ(incremental.at("meets_tspec").as_bool(),
                full.at("meets_tspec").as_bool())
          << circuit << " step " << step;
    }
    EXPECT_GT(structural_steps, 0) << "edit mix never went structural";

    // From-scratch cross-check: a second handle of the same circuit,
    // replaying the log, is the literal stateless run of the final
    // state.  (Node ids are deterministic, so the log replays 1:1.)
    const Json::Object reopened =
        registry.open(open_circuit(circuit, std::string(circuit) + "-r"));
    const std::string replay = reopened.at("design").as_string();
    for (const DesignEdit& edit : log)
      registry.edit(one_edit(replay, edit));
    const Json::Object a = evaluate(registry, design, "auto");
    const Json::Object b = evaluate(registry, replay, "full");
    for (const char* key : {"power_uw", "arrival_ns", "area_um2"})
      EXPECT_EQ(a.at(key).as_double(), b.at(key).as_double())
          << circuit << " replay field " << key;

    CloseDesignRequest close;
    close.design = design;
    registry.close(close);
    close.design = replay;
    registry.close(close);
  }
}

/// Auto mode resolves to the cheap path when it can and the full path
/// when it must; asking for the impossible is a protocol error with the
/// documented text.
TEST(EcoSessionTest, StructuralEditsForceFullRecompile) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("b9", "eco"));
  const std::int64_t gate = find_gate(registry, "eco");

  // A fresh handle has no structural debt: auto stays incremental (the
  // first evaluation arms the timer lazily).
  EXPECT_EQ("incremental",
            evaluate(registry, "eco", "auto").at("mode").as_string());
  registry.edit(one_edit("eco", rung_edit(gate, 1)));
  EXPECT_EQ("incremental",
            evaluate(registry, "eco", "auto").at("mode").as_string());

  DesignEdit lc;
  lc.op = DesignEdit::Op::kInsertLc;
  lc.gate = Json(gate);
  registry.edit(one_edit("eco", lc));
  EXPECT_PROTOCOL_ERROR(
      evaluate(registry, "eco", "incremental"),
      "cannot reoptimize 'eco' incrementally: structural edits require "
      "a full recompile (mode 'full' or 'auto')");
  EXPECT_EQ("full", evaluate(registry, "eco", "auto").at("mode")
                        .as_string());
  // Debt paid: the timer is re-armed and incremental works again.
  EXPECT_EQ("incremental",
            evaluate(registry, "eco", "incremental").at("mode")
                .as_string());
}

// ---- edit semantics ----

TEST(EcoSessionTest, EditErrorsAreIndexedAndPartialApplicationSticks) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("C432", "c"));
  const std::int64_t gate = find_gate(registry, "c");

  // Batch of two: the first (valid) edit stays applied, the second
  // fails with its index in the message.
  EditRequest request;
  request.design = "c";
  request.edits.push_back(rung_edit(gate, 1));
  DesignEdit bad;
  bad.op = DesignEdit::Op::kRung;
  bad.gate = Json(std::string("no_such_gate"));
  bad.rung = 1;
  request.edits.push_back(bad);
  EXPECT_PROTOCOL_ERROR(registry.edit(request),
                        "edit 1: unknown gate 'no_such_gate' in design "
                        "'c'");
  EXPECT_EQ(1, evaluate(registry, "c", "full").at("low").as_int());

  EXPECT_PROTOCOL_ERROR(
      registry.edit(one_edit("c", rung_edit(gate, 5))),
      "edit 0: rung 5 out of range for a 2-rung ladder");
}

TEST(EcoSessionTest, LevelConverterInsertRemoveRoundTrips) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  const Json::Object opened = registry.open(open_circuit("b9", "lc"));
  const std::int64_t before = opened.at("gates").as_int();
  const std::int64_t gate = find_gate(registry, "lc");

  const double area_before =
      evaluate(registry, "lc", "full").at("area_um2").as_double();

  DesignEdit insert;
  insert.op = DesignEdit::Op::kInsertLc;
  insert.gate = Json(gate);
  const Json::Object inserted = registry.edit(one_edit("lc", insert));
  EXPECT_TRUE(inserted.at("structural").as_bool());
  EXPECT_EQ(before + 1, inserted.at("gates").as_int());
  // The materialized converter is a real gate: it costs area.  (The
  // `level_converters` reply field counts assignment-driven boundary
  // converters, a different thing — see core/design.hpp.)
  EXPECT_GT(evaluate(registry, "lc", "auto").at("area_um2").as_double(),
            area_before);

  // The inserted converter is one of the newest ids; find and remove it
  // (scanning like a protocol client would).  replace_uses tombstones
  // the node, so the gate count and the area return exactly.
  DesignEdit remove;
  remove.op = DesignEdit::Op::kRemoveLc;
  Json::Object removed_reply;
  bool removed = false;
  for (std::int64_t id = before; !removed && id < before + 64; ++id) {
    remove.gate = Json(id);
    try {
      removed_reply = registry.edit(one_edit("lc", remove));
      removed = true;
    } catch (const ProtocolError&) {
    }
  }
  ASSERT_TRUE(removed);
  EXPECT_EQ(before, removed_reply.at("gates").as_int());
  EXPECT_EQ(area_before,
            evaluate(registry, "lc", "auto").at("area_um2").as_double());

  // A plain gate is not a removable converter.
  DesignEdit bad;
  bad.op = DesignEdit::Op::kRemoveLc;
  bad.gate = Json(gate);
  EXPECT_THROW(registry.edit(one_edit("lc", bad)), ProtocolError);
}

// ---- lifecycle: refcounts, expiry, eviction, drain ----

TEST(EcoSessionTest, AttachRefcountsAndDoubleCloseTombstone) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});

  const Json::Object first = registry.open(open_circuit("b9", "shared"));
  EXPECT_FALSE(first.at("attached").as_bool());
  EXPECT_EQ(1, first.at("refs").as_int());
  const Json::Object second = registry.open(open_circuit("b9", "shared"));
  EXPECT_TRUE(second.at("attached").as_bool());
  EXPECT_EQ(2, second.at("refs").as_int());
  EXPECT_EQ(1u, registry.open_count());

  CloseDesignRequest close;
  close.design = "shared";
  EXPECT_EQ(1, registry.close(close).at("refs").as_int());
  evaluate(registry, "shared", "full");  // still usable at refs 1
  EXPECT_EQ(0, registry.close(close).at("refs").as_int());
  EXPECT_EQ(0u, registry.open_count());

  EXPECT_PROTOCOL_ERROR(registry.close(close),
                        "design 'shared' is closed");
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "shared", "full"),
                        "design 'shared' is closed");
  EXPECT_PROTOCOL_ERROR(
      registry.edit(one_edit("shared", rung_edit(0, 0))),
      "design 'shared' is closed");
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "nope", "full"),
                        "unknown design handle 'nope'");

  // A closed name can be reopened fresh (the tombstone clears).
  const Json::Object reopened = registry.open(open_circuit("b9", "shared"));
  EXPECT_FALSE(reopened.at("attached").as_bool());
}

TEST(EcoSessionTest, IdleHandlesExpire) {
  const Library lib = build_compass_library();
  DesignSessionConfig config;
  config.idle_ms = 1;
  DesignRegistry registry(&lib, config);
  registry.open(open_circuit("b9", "sleepy"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "sleepy", "full"),
                        "design 'sleepy' expired after idle timeout");
  EXPECT_EQ(1u, registry.stats().expired);
  EXPECT_EQ(0u, registry.open_count());
}

TEST(EcoSessionTest, ByteBudgetEvictsOldestIdle) {
  const Library lib = build_compass_library();
  DesignSessionConfig config;
  config.max_bytes = 1;  // everything is over budget; one survivor max
  DesignRegistry registry(&lib, config);
  registry.open(open_circuit("b9", "old"));
  registry.open(open_circuit("C432", "young"));
  // Opening "young" ran the GC over budget: "old" (oldest idle) went.
  EXPECT_PROTOCOL_ERROR(
      evaluate(registry, "old", "full"),
      "design 'old' was evicted under the design byte budget");
  evaluate(registry, "young", "full");  // the last handle is never evicted
  EXPECT_EQ(1u, registry.stats().evicted);
  EXPECT_GT(registry.stats().resident_bytes, 0u);
}

TEST(EcoSessionTest, TooManyOpenDesigns) {
  const Library lib = build_compass_library();
  DesignSessionConfig config;
  config.max_open = 1;
  DesignRegistry registry(&lib, config);
  registry.open(open_circuit("b9", "only"));
  EXPECT_PROTOCOL_ERROR(registry.open(open_circuit("C432", "over")),
                        "too many open designs: 1 open at cap 1");
}

TEST(EcoSessionTest, DrainRefusesNewWorkButClosesCleanly) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("b9", "held"));
  registry.begin_drain();

  EXPECT_PROTOCOL_ERROR(registry.open(open_circuit("C432")),
                        "draining: design sessions are closing");
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "held", "full"),
                        "draining: design sessions are closing");
  EXPECT_PROTOCOL_ERROR(
      registry.edit(one_edit("held", rung_edit(0, 0))),
      "draining: design sessions are closing");

  // close_design still works mid-drain: clients get to say goodbye.
  CloseDesignRequest close;
  close.design = "held";
  EXPECT_EQ(0, registry.close(close).at("refs").as_int());
  registry.close_all();
  EXPECT_EQ(0u, registry.open_count());
}

TEST(EcoSessionTest, UnknownCircuitFailsTheOpen) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  EXPECT_PROTOCOL_ERROR(registry.open(open_circuit("not_a_circuit")),
                        "unknown MCNC circuit 'not_a_circuit'");
  EXPECT_EQ(0u, registry.open_count());
  EXPECT_EQ(0u, registry.stats().opened);
}

// ---- sweep ----

TEST(EcoSessionTest, SweepGridShapeAndPareto) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("b9", "grid"));

  SweepRequest request;
  request.design = "grid";
  request.vlow = {4.3, 3.7};
  request.specs = {"cvs", "dscale", gscale_budget_spec(0.05),
                   gscale_budget_spec(0.10)};
  const Json::Object reply = registry.sweep(request);
  // 2 ladders x (cvs + dscale + gscale x 2 budgets) = 8 cells.
  EXPECT_EQ(8u, reply.at("count").as_uint());
  EXPECT_EQ(8u, reply.at("cells").as_array().size());
  EXPECT_FALSE(reply.at("pareto").as_array().empty());
  EXPECT_EQ("grid", reply.at("design").as_string());
  EXPECT_EQ(1u, registry.stats().sweeps);
  EXPECT_EQ(8u, registry.stats().sweep_cells);
}

// ---- socket level: the NDJSON protocol end to end ----

class EcoServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig config;
    config.tcp_port = 0;
    config.num_threads = 2;
    config.cache_bytes = 8u << 20;
    service_.emplace(config);
    service_->start();
  }
  void TearDown() override {
    if (service_) {
      service_->request_stop();
      service_->stop();
    }
  }
  std::optional<Service> service_;
};

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

 private:
  Socket socket_;
  LineReader reader_;
};

TEST_F(EcoServiceTest, FullSessionOverTheWire) {
  Client client(service_->port());

  client.send(R"({"type":"open_design","circuit":"C432","name":"wire"})");
  Json opened = client.recv();
  ASSERT_EQ("design_opened", opened.find("type")->as_string())
      << opened.dump();
  EXPECT_EQ("wire", opened.find("design")->as_string());
  const std::int64_t gates = opened.find("gates")->as_int();
  EXPECT_GT(gates, 0);

  // Find a gate over the wire: bad addresses answer errors and the
  // connection keeps serving (error containment).
  std::int64_t gate = -1;
  for (std::int64_t id = 0; id < gates && gate < 0; ++id) {
    client.send(R"({"type":"edit","design":"wire","edits":[{"op":"rung",)"
                R"("gate":)" +
                std::to_string(id) + R"(,"rung":1}]})");
    const Json reply = client.recv();
    if (reply.find("type")->as_string() == "edited") gate = id;
  }
  ASSERT_GE(gate, 0);

  client.send(
      R"({"type":"reoptimize","design":"wire","mode":"incremental"})");
  Json incremental = client.recv();
  ASSERT_EQ("reoptimized", incremental.find("type")->as_string())
      << incremental.dump();
  EXPECT_EQ("incremental", incremental.find("mode")->as_string());
  EXPECT_EQ(1, incremental.find("low")->as_int());

  client.send(R"({"type":"reoptimize","design":"wire","mode":"full"})");
  Json full = client.recv();
  ASSERT_EQ("reoptimized", full.find("type")->as_string());
  // The wire carries the same doubles both ways — byte identity
  // survives serialization because dump() round-trips doubles exactly.
  for (const char* key : {"power_uw", "arrival_ns", "area_um2"})
    EXPECT_EQ(incremental.find(key)->as_double(),
              full.find(key)->as_double())
        << key;

  // Pipeline reoptimize: first run computes, second answers from cache.
  client.send(
      R"({"type":"reoptimize","design":"wire","algos":["cvs"]})");
  Json computed = client.recv();
  ASSERT_EQ("reoptimized", computed.find("type")->as_string())
      << computed.dump();
  EXPECT_EQ("pipeline", computed.find("mode")->as_string());
  EXPECT_EQ("miss", computed.find("cache")->as_string());
  ASSERT_NE(nullptr, computed.find("report"));
  client.send(
      R"({"type":"reoptimize","design":"wire","algos":["cvs"]})");
  Json cached = client.recv();
  EXPECT_EQ("hit", cached.find("cache")->as_string());
  EXPECT_EQ(computed.find("report")->dump(),
            cached.find("report")->dump());

  client.send(
      R"({"type":"sweep","design":"wire","vlow":[4.3],"algos":["cvs"]})");
  Json swept = client.recv();
  ASSERT_EQ("sweep_result", swept.find("type")->as_string())
      << swept.dump();
  EXPECT_EQ(1u, swept.find("count")->as_uint());

  // The stats block and the Prometheus gauges both see the session.
  client.send(R"({"type":"stats"})");
  const Json stats = client.recv();
  const Json* designs = stats.find("designs");
  ASSERT_NE(nullptr, designs);
  EXPECT_EQ(1u, designs->find("open")->as_uint());
  EXPECT_GT(designs->find("resident_bytes")->as_uint(), 0u);
  EXPECT_EQ(1u, designs->find("opened")->as_uint());
  EXPECT_GE(designs->find("edits")->as_uint(), 1u);
  EXPECT_EQ(1u, designs->find("reoptimize_incremental")->as_uint());
  EXPECT_EQ(1u, designs->find("sweeps")->as_uint());

  client.send(R"({"type":"metrics"})");
  const std::string text = client.recv().find("text")->as_string();
  EXPECT_NE(std::string::npos, text.find("dvsd_sessions_open 1"))
      << text;
  EXPECT_NE(std::string::npos, text.find("dvsd_design_opened_total 1"));

  client.send(R"({"type":"close_design","design":"wire"})");
  Json closed = client.recv();
  ASSERT_EQ("design_closed", closed.find("type")->as_string());
  EXPECT_EQ(0, closed.find("refs")->as_int());

  client.send(R"({"type":"edit","design":"wire","edits":[{"op":"rung",)"
              R"("gate":0,"rung":0}]})");
  const Json error = client.recv();
  EXPECT_EQ("error", error.find("type")->as_string());
  EXPECT_EQ("design 'wire' is closed",
            error.find("message")->as_string());
}

TEST_F(EcoServiceTest, MalformedDesignRequestsAreContained) {
  Client client(service_->port());
  client.send(R"({"type":"open_design"})");
  EXPECT_EQ("open_design needs exactly one of 'circuit' or 'netlist'",
            client.recv().find("message")->as_string());
  client.send(R"({"type":"edit","design":"x","edits":[]})");
  EXPECT_EQ("edit needs a non-empty 'edits' array",
            client.recv().find("message")->as_string());
  client.send(R"({"type":"reoptimize","design":"x","mode":"sideways"})");
  EXPECT_EQ("mode must be 'auto', 'incremental', or 'full'",
            client.recv().find("message")->as_string());
  client.send(R"({"type":"close_design"})");
  EXPECT_EQ("close_design needs a 'design' handle",
            client.recv().find("message")->as_string());
  // The connection survived all of it.
  client.send(R"({"type":"ping"})");
  EXPECT_EQ("pong", client.recv().find("type")->as_string());
}

}  // namespace
}  // namespace dvs
