#include "core/cvs.hpp"

#include <gtest/gtest.h>

#include "dual_ladder.hpp"

#include "benchgen/structured.hpp"

namespace dvs {
namespace {

class CvsTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();
};

TEST_F(CvsTest, ZeroSlackCircuitLowersNothing) {
  GridSpec spec;
  spec.gates = 60;
  spec.pis = 8;
  spec.pos = 3;
  spec.slack_branch_fraction = 0.0;
  Network net = build_balanced_grid(lib_, spec, "tight");
  Design design(std::move(net), lib_);  // tspec == own delay
  const CvsResult r = run_cvs_with_tcb(design);
  EXPECT_EQ(r.num_lowered, 0);
  EXPECT_EQ(design.count_low(), 0);
  EXPECT_FALSE(r.tcb.empty());
}

TEST_F(CvsTest, RelaxedConstraintLowersFromTheOutputs) {
  GridSpec spec;
  spec.gates = 60;
  spec.pis = 8;
  spec.pos = 3;
  Network net = build_balanced_grid(lib_, spec, "relaxed");
  const StaResult base = run_sta(net, lib_, -1.0);
  Design design(std::move(net), lib_, base.worst_arrival * 1.25);
  const CvsResult r = run_cvs(design);
  EXPECT_GT(r.num_lowered, 0);
  EXPECT_TRUE(cvs_cluster_invariant_holds(design));
  EXPECT_TRUE(design.run_timing().meets_constraint(1e-9));
}

TEST_F(CvsTest, ClusterIsContingentToOutputs) {
  // In a ripple adder the sum gates nearest cout have slack.
  Network net = build_ripple_adder(lib_, 16, "add16");
  Design design(std::move(net), lib_);
  run_cvs(design);
  EXPECT_TRUE(cvs_cluster_invariant_holds(design));
  EXPECT_EQ(design.count_lcs(), 0);
  EXPECT_GT(design.count_low(), 0);
}

TEST_F(CvsTest, SecondRunIsAFixpoint) {
  Network net = build_ripple_adder(lib_, 12, "add12");
  Design design(std::move(net), lib_);
  run_cvs(design);
  const int low_after_first = design.count_low();
  const CvsResult second = run_cvs(design);
  EXPECT_EQ(second.num_lowered, 0);
  EXPECT_EQ(design.count_low(), low_after_first);
}

TEST_F(CvsTest, PowerNeverIncreases) {
  Network net = build_ripple_adder(lib_, 16, "add16");
  Design baseline(net, lib_);
  Design design(std::move(net), lib_);
  run_cvs(design);
  EXPECT_LE(design.run_power().total(),
            baseline.run_power().total() + 1e-9);
}

TEST_F(CvsTest, TcbSitsNextToTheLowCluster) {
  Network net = build_ripple_adder(lib_, 16, "add16");
  Design design(std::move(net), lib_);
  const CvsResult r = run_cvs_with_tcb(design);
  for (NodeId t : r.tcb) {
    EXPECT_EQ(design.level(t), kTopRung);
    bool adjacent = false;
    for (NodeId fo : design.network().node(t).fanouts)
      if (design.level(fo) == kLowRung) adjacent = true;
    for (const OutputPort& port : design.network().outputs())
      if (port.driver == t) adjacent = true;
    EXPECT_TRUE(adjacent) << "TCB node " << t;
  }
}

}  // namespace
}  // namespace dvs
