// Tests for the support layer: deterministic RNG and unit formatting,
// the timing kernel's load rule shared by STA and power, and the
// robustness primitives under the distributed service — bounded backoff,
// deterministic fault injection, and the hardened socket layer.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "library/library.hpp"
#include "support/backoff.hpp"
#include "support/fault_inject.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"
#include "support/units.hpp"
#include "timing/sta.hpp"

namespace dvs {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    const int v = rng.next_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformishDistribution) {
  Rng rng(99);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(10)];
  for (int b = 0; b < 10; ++b) {
    EXPECT_GT(buckets[b], n / 10 - n / 50);
    EXPECT_LT(buckets[b], n / 10 + n / 50);
  }
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
  EXPECT_EQ(format_percent(0.1912), "19.12");
}

TEST(Units, ParseBytesRejectsASignAndAnOverflow) {
  std::size_t n = 0;
  EXPECT_TRUE(parse_bytes("4096", &n));
  EXPECT_EQ(n, 4096u);
  EXPECT_TRUE(parse_bytes("256M", &n));
  EXPECT_EQ(n, std::size_t{256} << 20);
  EXPECT_TRUE(parse_bytes("1k", &n));
  EXPECT_EQ(n, 1024u);
  EXPECT_TRUE(parse_bytes("0x10G", &n));
  EXPECT_EQ(n, std::size_t{16} << 30);
  EXPECT_TRUE(parse_bytes("18446744073709551615", &n));
  EXPECT_EQ(n, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(parse_bytes("17179869183G", &n));  // 2^64 - 2^30
  EXPECT_EQ(n, std::numeric_limits<std::size_t>::max() - ((1u << 30) - 1));

  // A sign is refused, not wrapped: "-1" used to read as 2^64 - 1.
  n = 7;
  for (const char* bad : {"-1", "-1K", "+1", " -1"}) {
    EXPECT_FALSE(parse_bytes(bad, &n)) << bad;
    EXPECT_EQ(n, 7u) << bad;
  }
  // A count past 2^64 - 1, before or after the suffix, is refused.
  for (const char* bad : {"18446744073709551616", "17179869184G",
                          "17592186044416M", "18014398509481984K"}) {
    EXPECT_FALSE(parse_bytes(bad, &n)) << bad;
    EXPECT_EQ(n, 7u) << bad;
  }
  for (const char* bad : {"", "K", "12KB", "1.5M", "x"})
    EXPECT_FALSE(parse_bytes(bad, &n)) << bad;
}

TEST(Units, SwitchPowerConstant) {
  // alpha * f[MHz] * C[fF] * V^2 * 1e-3 == uW: check one known point.
  // 0.25 * 20 MHz * 10 fF * 25 V^2 = 1.25 uW.
  EXPECT_NEAR(0.25 * 20.0 * 10.0 * 25.0 * kSwitchPowerToMicrowatt, 1.25,
              1e-12);
}

class LoadsTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();
};

TEST_F(LoadsTest, SplitsAcrossConverterBoundary) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const int inv = lib_.find("inv_d0");
  const NodeId g = net.add_gate(tt_inv(), {a}, inv);
  const NodeId hi = net.add_gate(tt_inv(), {g}, inv);
  const NodeId lo = net.add_gate(tt_inv(), {g}, inv);
  net.add_output("x", hi);
  net.add_output("y", lo);

  // g one rung down drives hi (top rung) and lo (g's own rung).
  std::vector<SupplyId> level(net.size(), kTopRung);
  level[g] = SupplyId{1};
  level[lo] = SupplyId{1};

  TimingContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.node_level = level;
  const StaResult sta = run_sta(ctx, -1.0);
  // LC side: exactly the high fanout pin + its wire.
  const double lc_side = lib_.cell(inv).input_cap[0] +
                         lib_.wire_load().wire_cap(1);
  EXPECT_NEAR(sta.lc_load[g], lc_side, 1e-12);
  // Direct side: the low pin + the converter's input + wire(2).
  const double direct =
      lib_.cell(inv).input_cap[0] +
      lib_.cell(lib_.level_converter()).input_cap[0] +
      lib_.wire_load().wire_cap(2);
  EXPECT_NEAR(sta.load[g], direct, 1e-12);
  // The sinks carry no converter of their own.
  EXPECT_EQ(sta.lc_load[hi], 0.0);
  EXPECT_EQ(sta.lc_load[lo], 0.0);
}

TEST_F(LoadsTest, MultiPinFanoutCountsEveryPin) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const int xnor = lib_.find("xnor2_d0");
  // Same driver on both pins of one sink.
  const NodeId g = net.add_gate(tt_inv(), {a}, lib_.find("inv_d0"));
  const NodeId s = net.add_gate(tt_xnor(2), {g, g}, xnor);
  net.add_output("y", s);
  const StaResult sta = run_sta(net, lib_, -1.0);
  EXPECT_NEAR(sta.load[g],
              2 * lib_.cell(xnor).input_cap[0] +
                  lib_.wire_load().wire_cap(2),
              1e-12);
  EXPECT_EQ(sta.lc_load[g], 0.0);
}

// ---- BackoffPolicy ---------------------------------------------------------

TEST(Backoff, DelayTracksTheExponentialEnvelopeWithJitter) {
  BackoffPolicy policy;  // base 50, x2, cap 2000
  double cap = policy.base_ms;
  for (int attempt = 0; attempt < 10; ++attempt) {
    const double delay = policy.delay_ms(attempt);
    const double bounded_cap = std::min(cap, policy.max_ms);
    EXPECT_GE(delay, bounded_cap / 2) << "attempt " << attempt;
    EXPECT_LT(delay, bounded_cap) << "attempt " << attempt;
    cap *= policy.multiplier;
  }
}

TEST(Backoff, DeterministicInSeedAndAttempt) {
  BackoffPolicy a, b;
  a.seed = b.seed = 42;
  for (int attempt = 0; attempt < 8; ++attempt)
    EXPECT_EQ(a.delay_ms(attempt), b.delay_ms(attempt));

  // A different seed de-synchronizes the jitter (that is its job:
  // simultaneous retriers must spread out, not stampede in lockstep).
  BackoffPolicy c;
  c.seed = 43;
  bool any_differ = false;
  for (int attempt = 0; attempt < 8; ++attempt)
    if (c.delay_ms(attempt) != a.delay_ms(attempt)) any_differ = true;
  EXPECT_TRUE(any_differ);
}

TEST(Backoff, LateAttemptsSaturateAtMaxMs) {
  BackoffPolicy policy;
  policy.base_ms = 10.0;
  policy.max_ms = 80.0;
  const double delay = policy.delay_ms(30);  // 10 * 2^30 >> 80
  EXPECT_GE(delay, 40.0);
  EXPECT_LT(delay, 80.0);
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInject, DefaultAndEmptySpecAreDisabled) {
  FaultInjector none;
  EXPECT_FALSE(none.enabled());
  EXPECT_EQ(none.at("job-reply"), FaultInjector::Action::kNone);

  FaultInjector empty = FaultInjector::parse("");
  EXPECT_FALSE(empty.enabled());
  EXPECT_EQ(empty.at("job-reply"), FaultInjector::Action::kNone);
}

TEST(FaultInject, ProbabilityOneAlwaysFiresAndOnlyAtItsPoint) {
  FaultInjector faults =
      FaultInjector::parse("job-reply=corrupt-reply@1.0,seed=3");
  ASSERT_TRUE(faults.enabled());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(faults.at("job-reply"), FaultInjector::Action::kCorruptReply);
    EXPECT_EQ(faults.at("register"), FaultInjector::Action::kNone);
  }
}

TEST(FaultInject, ProbabilityZeroNeverFires) {
  FaultInjector faults = FaultInjector::parse("job-accept=stall@0.0");
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(faults.at("job-accept"), FaultInjector::Action::kNone);
}

TEST(FaultInject, FixedSeedReplaysTheExactFaultSchedule) {
  const std::string spec = "job-reply=drop-connection@0.5,seed=7";
  FaultInjector a = FaultInjector::parse(spec);
  FaultInjector b = FaultInjector::parse(spec);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    const FaultInjector::Action decision = a.at("job-reply");
    EXPECT_EQ(decision, b.at("job-reply")) << "arrival " << i;
    if (decision != FaultInjector::Action::kNone) ++fired;
  }
  // A 0.5 schedule actually mixes hits and passes.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);

  // A different seed produces a different schedule.
  FaultInjector c = FaultInjector::parse("job-reply=drop-connection@0.5,seed=8");
  FaultInjector d = FaultInjector::parse(spec);
  bool any_differ = false;
  for (int i = 0; i < 200; ++i)
    if (c.at("job-reply") != d.at("job-reply")) any_differ = true;
  EXPECT_TRUE(any_differ);
}

TEST(FaultInject, CopiesShareTheArrivalCounters) {
  // The worker hands copies of one injector to its channel and job
  // threads; the schedule must stay one stream per point, not restart
  // per copy.
  FaultInjector original =
      FaultInjector::parse("job-reply=stall@0.5,seed=11");
  FaultInjector copy = original;
  std::vector<FaultInjector::Action> interleaved;
  for (int i = 0; i < 100; ++i)
    interleaved.push_back((i % 2 == 0 ? original : copy).at("job-reply"));

  FaultInjector fresh = FaultInjector::parse("job-reply=stall@0.5,seed=11");
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(interleaved[i], fresh.at("job-reply")) << "arrival " << i;
}

TEST(FaultInject, StallMsSettingParses) {
  EXPECT_EQ(FaultInjector::parse("job-reply=stall,stall_ms=1234").stall_ms(),
            1234);
  EXPECT_EQ(FaultInjector::parse("job-reply=stall").stall_ms(), 60000);
}

TEST(FaultInject, MalformedSpecsThrowWithTheGrammar) {
  const char* bad[] = {
      "nonsense",                     // no key=value
      "job-reply=",                   // empty value
      "job-reply=set-on-fire",        // unknown action
      "job-reply=stall@1.5",          // probability out of range
      "job-reply=stall@oops",         // malformed probability
      "seed=abc",                     // malformed number
      "stall_ms=-5",                  // negative stall
  };
  for (const char* spec : bad) {
    EXPECT_THROW(FaultInjector::parse(spec), std::runtime_error) << spec;
  }
}

// ---- socket hardening ------------------------------------------------------

/// One accepted loopback connection pair for poking at failure modes.
struct SocketPair {
  ListenSocket listener;
  Socket client;
  Socket server;

  SocketPair() {
    listener = ListenSocket::listen_tcp(0);
    std::thread connector([this] {
      client = Socket::connect_tcp("127.0.0.1", listener.port());
    });
    server = listener.accept_connection();
    connector.join();
  }
};

TEST(SocketHardening, SendToDeadPeerThrowsInsteadOfKillingTheProcess) {
  SocketPair pair;
  pair.server.close();
  // The first sends may land in the kernel buffer before the RST/EPIPE
  // comes back; keep pushing until the failure surfaces.  Surviving to
  // the throw IS the assertion — an unhandled SIGPIPE would abort the
  // whole test binary.
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i)
          pair.client.send_all(std::string(4096, 'x'));
      },
      SocketError);
}

TEST(SocketHardening, PeerResetMidReadIsACleanStructuredError) {
  SocketPair pair;
  std::atomic<bool> got_clean_error{false};
  std::thread reader([&] {
    LineReader lines(&pair.client, 1u << 20);
    std::string line;
    try {
      // Blocks awaiting a line that will never complete.
      while (lines.read_line(&line)) {
      }
    } catch (const SocketError&) {
      got_clean_error = true;  // structured failure, not a crash
    }
  });
  // Half a line, then a hard RST (SO_LINGER 0 close aborts the
  // connection instead of FIN-closing it) — the "worker killed
  // mid-reply" shape.
  pair.server.send_all("{\"type\":\"job_result\",\"body\":\"trunc");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  struct linger hard = {1, 0};
  ::setsockopt(pair.server.fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  pair.server.close();
  reader.join();
  EXPECT_TRUE(got_clean_error.load());
}

TEST(SocketHardening, RecvTimeoutThrowsSocketTimeoutError) {
  SocketPair pair;
  pair.client.set_recv_timeout_ms(100);
  char byte;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(pair.client.recv_some(&byte, 1), SocketTimeoutError);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(10));

  // Disarmed, a recv against live data still works.
  pair.client.set_recv_timeout_ms(0);
  pair.server.send_all("k");
  EXPECT_EQ(pair.client.recv_some(&byte, 1), 1u);
  EXPECT_EQ(byte, 'k');
}

TEST(SocketHardening, ConnectionRefusedIsAStructuredError) {
  // Bind a port, then release it: nothing listens there anymore.
  int dead_port;
  {
    ListenSocket probe = ListenSocket::listen_tcp(0);
    dead_port = probe.port();
  }
  EXPECT_THROW(Socket::connect_tcp("127.0.0.1", dead_port), SocketError);
}

}  // namespace
}  // namespace dvs
