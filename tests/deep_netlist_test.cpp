// Netlists far deeper than real logic, built on a thread whose stack is a
// fixed 256 KiB.  The readers, the mapper and the max-flow solver all
// walk such inputs on explicit stacks; a builder or solver that recursed
// once per level would overflow this stack long before 20,000 levels,
// in an optimized build and under the address sanitizer alike.
#include <gtest/gtest.h>

#include <pthread.h>

#include <exception>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/antichain.hpp"
#include "graph/separator.hpp"
#include "library/library.hpp"
#include "netlist/blif.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "sim/bitsim.hpp"
#include "synth/mapper.hpp"

namespace dvs {
namespace {

constexpr std::size_t kStackBytes = 256 * 1024;
constexpr int kDepth = 20000;

/// Runs `body` to completion on a thread with a kStackBytes stack.
void on_small_stack(const std::function<void()>& body) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, kStackBytes), 0);
  auto entry = [](void* arg) -> void* {
    try {
      (*static_cast<const std::function<void()>*>(arg))();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw: " << e.what();
    }
    return nullptr;
  };
  pthread_t thread;
  const int created = pthread_create(
      &thread, &attr, entry, const_cast<std::function<void()>*>(&body));
  pthread_attr_destroy(&attr);
  ASSERT_EQ(created, 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
}

constexpr int kInputs = 64;

std::string net(int i) { return std::string("n").append(std::to_string(i)); }
std::string input(int k) {
  return std::string("x").append(std::to_string(k));
}

/// The nets gate `i` reads: the gate before it (x63 for the first) and
/// one of the inputs in turn.
std::string first(int i) { return i == 0 ? input(kInputs - 1) : net(i - 1); }
std::string second(int i) { return input(i % kInputs); }

/// A NAND chain n_i = !(first(i) & second(i)), kDepth levels deep,
/// declared in dependency order or in reverse (each gate before the one
/// it reads).
std::string blif_chain(bool reverse) {
  std::string text = ".model chain\n.inputs";
  for (int k = 0; k < kInputs; ++k) text.append(" ").append(input(k));
  text.append("\n.outputs ").append(net(kDepth - 1)).append("\n");
  for (int k = 0; k < kDepth; ++k) {
    const int i = reverse ? kDepth - 1 - k : k;
    text.append(".names ").append(first(i)).append(" ").append(second(i));
    text.append(" ").append(net(i)).append("\n11 0\n");
  }
  return text.append(".end\n");
}

std::string verilog_chain(bool reverse) {
  const std::string out = net(kDepth - 1);
  std::string text = "module chain (";
  for (int k = 0; k < kInputs; ++k) text.append(input(k)).append(", ");
  text.append(out).append(");\n");
  for (int k = 0; k < kInputs; ++k)
    text.append("  input ").append(input(k)).append(";\n");
  text.append("  output ").append(out).append(";\n");
  for (int k = 0; k < kDepth; ++k) {
    const int i = reverse ? kDepth - 1 - k : k;
    text.append("  assign ").append(net(i)).append(" = ~").append(first(i));
    text.append(" | ~").append(second(i)).append(";\n");
  }
  return text.append("endmodule\n");
}

const Library& lib() {
  static const Library kLib = build_compass_library();
  return kLib;
}

TEST(DeepNetlist, ChainsParseToOneTopologyInEitherOrder) {
  const Library& library = lib();
  on_small_stack([&] {
    const Network forward = read_blif_string(blif_chain(false));
    EXPECT_EQ(forward.num_gates(), kDepth);
    const std::uint64_t hash = topology_hash(forward);
    EXPECT_EQ(topology_hash(read_blif_string(blif_chain(true))), hash);
    EXPECT_EQ(
        topology_hash(read_verilog_string(verilog_chain(false), library)),
        hash);
    EXPECT_EQ(
        topology_hash(read_verilog_string(verilog_chain(true), library)),
        hash);
  });
}

TEST(DeepNetlist, LongCycleIsReported) {
  const Library& library = lib();
  on_small_stack([&] {
    // n0 reads the chain's last net instead of x63: a cycle through all
    // kDepth gates.
    std::string blif = blif_chain(true);
    blif.replace(blif.find(".names x63 x0 n0"), 10,
                 std::string(".names ").append(net(kDepth - 1)));
    try {
      read_blif_string(blif);
      ADD_FAILURE() << "a cyclic BLIF netlist parsed";
    } catch (const BlifError& e) {
      EXPECT_NE(std::string(e.what()).find("combinational cycle through "),
                std::string::npos)
          << e.what();
    }
    std::string verilog = verilog_chain(true);
    verilog.replace(verilog.find("n0 = ~x63 |"), 9,
                    std::string("n0 = ~").append(net(kDepth - 1)));
    try {
      read_verilog_string(verilog, library);
      ADD_FAILURE() << "a cyclic Verilog netlist parsed";
    } catch (const VerilogError& e) {
      EXPECT_NE(std::string(e.what()).find("combinational cycle through "),
                std::string::npos)
          << e.what();
    }
  });
}

TEST(DeepNetlist, PaperSetupMapsTheChain) {
  const Library& library = lib();
  on_small_stack([&] {
    const Network chain = read_blif_string(blif_chain(false));
    const PaperSetupResult setup = map_paper_setup(chain, library);
    EXPECT_GE(setup.mapped.num_gates(), kDepth);
    EXPECT_GT(setup.tspec, 0.0);
    std::vector<std::uint64_t> patterns(kInputs);
    for (int k = 0; k < kInputs; ++k)
      patterns[k] = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k + 1);
    const BitSimulator mapped(setup.mapped), unmapped(chain);
    EXPECT_EQ(mapped.simulate(patterns)[setup.mapped.outputs()[0].driver],
              unmapped.simulate(patterns)[chain.outputs()[0].driver]);
  });
}

TEST(DeepNetlist, DinicSolvesALongPathSeparator) {
  on_small_stack([] {
    SeparatorProblem p;
    p.num_nodes = kDepth;
    for (int v = 0; v + 1 < kDepth; ++v) p.edges.emplace_back(v, v + 1);
    p.weight.assign(kDepth, 2.0);
    p.weight[kDepth / 3] = 1.0;
    p.sources = {0};
    p.sinks = {kDepth - 1};
    const SeparatorResult r = min_weight_separator(p);
    EXPECT_EQ(r.selected, std::vector<int>{kDepth / 3});
    EXPECT_EQ(r.total_weight, 1.0);
  });
}

TEST(DeepNetlist, DinicSolvesALongPathAntichain) {
  on_small_stack([] {
    // Only the ends weigh anything, so the one augmenting path runs the
    // whole chain.
    AntichainProblem p;
    p.num_nodes = kDepth;
    for (int v = 0; v + 1 < kDepth; ++v) p.edges.emplace_back(v, v + 1);
    p.weight.assign(kDepth, 0.0);
    p.weight.front() = 1.0;
    p.weight.back() = 2.0;
    const AntichainResult r = max_weight_antichain(p);
    EXPECT_EQ(r.selected, std::vector<int>{kDepth - 1});
    EXPECT_EQ(r.total_weight, 2.0);
  });
}

}  // namespace
}  // namespace dvs
