// Pins the raw bits the two inner kernels produce: the incremental timer
// (every StaResult vector after every step of a seeded edit walk) and the
// max-flow reductions (min-weight separators, max-weight antichains, and
// plain max-flow values with per-arc flows under both solvers).  Each
// view is a dump of 64-bit hashes of raw double bit patterns, pinned by
// its own fnv1a64; a failure prints the dump it hashed.
//
// The kernels' containers may change freely, but their visit orders may
// not: a different node or arc order re-associates floating-point folds
// and shows up here as a changed bit long before a suite row moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/design.hpp"
#include "flow_instances.hpp"
#include "graph/flow_network.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "timing/incremental.hpp"

namespace dvs {
namespace {

void expect_pinned(std::uint64_t expected, const std::string& dump,
                   const char* what) {
  EXPECT_EQ(expected, fnv1a64(dump))
      << what << " changed; its dump was:\n"
      << dump;
}

/// Folds the raw bytes of a trivially copyable array into `hash`.
template <typename T>
std::uint64_t fold(std::uint64_t hash, const T* data, std::size_t count) {
  const std::string_view bytes(reinterpret_cast<const char*>(data),
                               count * sizeof(T));
  return hash ^ (fnv1a64(bytes) + 0x9e3779b97f4a7c15ULL + (hash << 6) +
                 (hash >> 2));
}

template <typename T>
std::uint64_t fold(std::uint64_t hash, const std::vector<T>& v) {
  return fold(hash, v.data(), v.size());
}

std::uint64_t fold(std::uint64_t hash, double x) {
  return fold(hash, &x, 1);
}

std::uint64_t hash_sta(const StaResult& r) {
  std::uint64_t h = 0;
  h = fold(h, r.arrival);
  h = fold(h, r.lc_arrival);
  h = fold(h, r.required);
  h = fold(h, r.slack);
  h = fold(h, r.load);
  h = fold(h, r.lc_load);
  h = fold(h, r.tspec);
  return fold(h, r.worst_arrival);
}

std::string line(const char* fmt, auto... args) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

// ---- incremental timing ------------------------------------------------

/// 300 seeded steps of rung flips and one-step up/downsizes; every step
/// notifies the timer and records the hash of its whole StaResult.
std::string incremental_walk(const char* circuit, std::uint64_t seed) {
  const Library lib = build_compass_library();
  Design design(build_mcnc_circuit(lib, *find_mcnc(circuit)), lib);
  IncrementalSta timer(design.timing_context(), design.tspec());
  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });

  std::string dump = line("%s start %016llx\n", circuit,
                          static_cast<unsigned long long>(
                              hash_sta(timer.result())));
  Rng rng(seed);
  for (int step = 0; step < 300; ++step) {
    const NodeId id = gates[rng.next_below(gates.size())];
    const int cell = design.network().node(id).cell;
    const std::uint64_t draw = rng.next_below(3);
    const int resized = draw == 1   ? lib.upsize(cell)
                        : draw == 2 ? lib.downsize(cell)
                                    : -1;
    const char* op = "flip";
    if (resized >= 0) {
      design.network().set_cell(id, resized);
      op = draw == 1 ? "up" : "down";
    } else {
      design.set_level(id, design.level(id) == kTopRung
                               ? design.supplies().deepest()
                               : kTopRung);
    }
    timer.on_node_changed(id);
    dump += line("%d %s %d %016llx\n", step, op, id,
                 static_cast<unsigned long long>(
                     hash_sta(timer.result())));
  }
  return dump;
}

TEST(KernelPins, IncrementalWalkAlu4) {
  expect_pinned(0x000bce538898dd58ULL, incremental_walk("alu4", 17),
                "alu4 walk");
}

TEST(KernelPins, IncrementalWalkC7552) {
  expect_pinned(0x184d191f2de53d0aULL, incremental_walk("C7552", 18),
                "C7552 walk");
}

TEST(KernelPins, IncrementalWalkDes) {
  expect_pinned(0xce8fe963738ef030ULL, incremental_walk("des", 19),
                "des walk");
}

// ---- max-flow reductions -----------------------------------------------

constexpr int kSizes[] = {10, 25, 60, 150, 400, 1000, 2000};

TEST(KernelPins, SeparatorsAndAntichains) {
  std::string dump;
  for (const FlowAlgo algo : {FlowAlgo::kDinic, FlowAlgo::kEdmondsKarp}) {
    const char* name = algo == FlowAlgo::kDinic ? "dinic" : "ek";
    for (const int n : kSizes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(mix_seed(seed, static_cast<std::uint64_t>(n)));
        const SeparatorProblem sp = separator_instance(n, rng);
        const SeparatorResult sr = min_weight_separator(sp, algo);
        const AntichainProblem ap = antichain_instance(n, rng);
        const AntichainResult ar = max_weight_antichain(ap, algo);
        dump += line(
            "%s n=%d seed=%d sep %zu %016llx ac %zu %016llx\n", name, n,
            static_cast<int>(seed), sr.selected.size(),
            static_cast<unsigned long long>(
                fold(fold(0, sr.selected), sr.total_weight)),
            ar.selected.size(),
            static_cast<unsigned long long>(
                fold(fold(0, ar.selected), ar.total_weight)));
      }
    }
  }
  expect_pinned(0xaef940c8a5ce63daULL, dump, "separators and antichains");
}

TEST(KernelPins, MaxFlowValuesAndArcFlows) {
  std::string dump;
  for (int instance = 0; instance < 60; ++instance) {
    Rng rng(mix_seed(4242, static_cast<std::uint64_t>(instance)));
    const int n = rng.next_int(4, 200);
    const int arcs = rng.next_int(n, 6 * n);
    struct Added {
      int from, to;
      double cap;
    };
    std::vector<Added> added;
    for (int a = 0; a < arcs; ++a) {
      // Parallel arcs and the odd self-loop are both in the mix.
      const int u = rng.next_int(0, n - 1);
      const int v = rng.next_bool(0.02) ? u : rng.next_int(0, n - 1);
      added.push_back({u, v, 0.25 + 8.0 * rng.next_double()});
    }
    for (const FlowAlgo algo :
         {FlowAlgo::kDinic, FlowAlgo::kEdmondsKarp}) {
      FlowNetwork net;
      net.add_vertices(n);
      std::vector<int> index;
      for (const Added& a : added)
        index.push_back(net.add_arc(a.from, a.to, a.cap));
      const double value = max_flow(net, 0, n - 1, algo);
      std::vector<double> flows;
      for (std::size_t a = 0; a < added.size(); ++a)
        flows.push_back(net.flow_on(added[a].from, index[a]));
      dump += line("%d %s n=%d arcs=%d %016llx\n", instance,
                   algo == FlowAlgo::kDinic ? "dinic" : "ek", n, arcs,
                   static_cast<unsigned long long>(
                       fold(fold(0, value), flows)));
    }
  }
  expect_pinned(0x1c330c1ea71bb5efULL, dump,
                "max-flow values and arc flows");
}

}  // namespace
}  // namespace dvs
