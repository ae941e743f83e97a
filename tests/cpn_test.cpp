// Dedicated tests for TCB and critical-path-network extraction: the two
// analyses that steer Gscale.
#include "timing/cpn.hpp"

#include <gtest/gtest.h>

#include "benchgen/structured.hpp"
#include "core/cvs.hpp"
#include "timing/tcb.hpp"

namespace dvs {
namespace {

class CpnTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  Network grid(std::uint64_t seed = 3) {
    GridSpec spec;
    spec.gates = 80;
    spec.pis = 10;
    spec.pos = 4;
    spec.slack_branch_fraction = 0.1;
    spec.seed = seed;
    return build_balanced_grid(lib_, spec, "g");
  }
};

TEST_F(CpnTest, TcbOfTightGridIsThePoDrivers) {
  Design design(grid(), lib_);
  const CvsResult r = run_cvs_with_tcb(design);  // lowers nothing: zero slack
  ASSERT_EQ(r.num_lowered, 0);
  // Every PO driver is critical and blocked -> all in the TCB.
  std::vector<char> in_tcb(design.network().size(), 0);
  for (NodeId t : r.tcb) in_tcb[t] = 1;
  for (const OutputPort& port : design.network().outputs())
    EXPECT_TRUE(in_tcb[port.driver]) << port.name;
}

TEST_F(CpnTest, CpnCoversTheMeshSpine) {
  Design design(grid(), lib_);
  const CvsResult cvs = run_cvs_with_tcb(design);
  const StaResult sta = design.run_timing();
  const CriticalPathNetwork cpn =
      extract_cpn(design.timing_context(), sta, cvs.tcb, 0.05);
  EXPECT_FALSE(cpn.empty());
  // In a zero-slack mesh essentially every gate is on a critical path.
  EXPECT_GT(static_cast<int>(cpn.nodes.size()),
            design.network().num_gates() / 2);
  EXPECT_FALSE(cpn.sources.empty());
  EXPECT_FALSE(cpn.sinks.empty());
}

TEST_F(CpnTest, CpnEdgesConnectMembers) {
  Design design(grid(), lib_);
  const CvsResult cvs = run_cvs_with_tcb(design);
  const StaResult sta = design.run_timing();
  const CriticalPathNetwork cpn =
      extract_cpn(design.timing_context(), sta, cvs.tcb, 0.05);
  std::vector<char> member(design.network().size(), 0);
  for (NodeId n : cpn.nodes) member[n] = 1;
  for (const auto& [u, v] : cpn.edges) {
    EXPECT_TRUE(member[u]);
    EXPECT_TRUE(member[v]);
    // Edges follow real netlist arcs.
    const auto& fanouts = design.network().node(u).fanouts;
    EXPECT_NE(std::find(fanouts.begin(), fanouts.end(), v),
              fanouts.end());
  }
}

TEST_F(CpnTest, WiderWindowGrowsTheNetwork) {
  Design design(grid(), lib_);
  const CvsResult cvs = run_cvs_with_tcb(design);
  const StaResult sta = design.run_timing();
  const auto narrow =
      extract_cpn(design.timing_context(), sta, cvs.tcb, 0.001);
  const auto wide =
      extract_cpn(design.timing_context(), sta, cvs.tcb, 0.5);
  EXPECT_GE(wide.nodes.size(), narrow.nodes.size());
}

TEST_F(CpnTest, SlackBranchesStayOutsideNarrowCpn) {
  Design design(grid(), lib_);
  const CvsResult cvs = run_cvs_with_tcb(design);
  const StaResult sta = design.run_timing();
  const auto cpn =
      extract_cpn(design.timing_context(), sta, cvs.tcb, 0.001);
  for (NodeId n : cpn.nodes)
    EXPECT_LT(sta.slack[n], 0.05) << "slacky node in narrow CPN";
}

TEST_F(CpnTest, EmptyTcbGivesEmptyCpn) {
  Design design(grid(), lib_);
  const StaResult sta = design.run_timing();
  const auto cpn = extract_cpn(design.timing_context(), sta, {}, 0.05);
  EXPECT_TRUE(cpn.empty());
}

}  // namespace
}  // namespace dvs
