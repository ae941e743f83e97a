#include "core/dscale.hpp"

#include <gtest/gtest.h>

#include "benchgen/random_dag.hpp"
#include "benchgen/structured.hpp"

namespace dvs {
namespace {

class DscaleTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  Network balanced_with_branches() {
    GridSpec spec;
    spec.gates = 120;
    spec.pis = 12;
    spec.pos = 4;
    spec.slack_branch_fraction = 0.15;
    spec.seed = 5;
    return build_balanced_grid(lib_, spec, "branches");
  }
};

TEST_F(DscaleTest, FindsSlackBeyondTheCvsCluster) {
  Network net = balanced_with_branches();
  Design cvs_only(net, lib_);
  run_cvs(cvs_only);

  Design design(std::move(net), lib_);
  const DscaleResult r = run_dscale(design);
  EXPECT_EQ(r.cvs_lowered, cvs_only.count_low());
  EXPECT_GT(design.count_low(), cvs_only.count_low());
  EXPECT_GT(r.mwis_lowered, 0);
  EXPECT_TRUE(design.run_timing().meets_constraint(1e-9));
}

TEST_F(DscaleTest, InsertsConvertersOnlyWhereNeeded) {
  Network net = balanced_with_branches();
  Design design(std::move(net), lib_);
  run_dscale(design);
  // Design answers from the rungs by the kernel's pin rule, so a gate
  // needs a converter exactly where the full STA loads one.
  const StaResult sta = design.run_timing();
  design.network().for_each_gate([&](const Node& g) {
    EXPECT_EQ(design.needs_lc(g.id), sta.lc_load[g.id] > 0.0) << g.id;
  });
  // Branch-lowered gates feed high spine gates: converters must exist.
  if (design.count_low() > 0) {
    EXPECT_GE(design.count_lcs(), 1);
  }
}

TEST_F(DscaleTest, TimingHoldsOnHybridCircuits) {
  HybridSpec spec;
  spec.gates = 250;
  spec.pis = 24;
  spec.pos = 12;
  spec.critical_fraction = 0.5;
  spec.seed = 17;
  Network net = build_hybrid_circuit(lib_, spec, "hybrid");
  Design design(std::move(net), lib_);
  const DscaleResult r = run_dscale(design);
  EXPECT_GE(r.rounds, 1);
  EXPECT_TRUE(design.run_timing().meets_constraint(1e-9));
}

TEST_F(DscaleTest, GreedySelectorAlsoSound) {
  Network net = balanced_with_branches();
  Design design(std::move(net), lib_);
  DscaleOptions options;
  options.selector = DscaleOptions::Selector::kGreedy;
  run_dscale(design, options);
  EXPECT_TRUE(design.run_timing().meets_constraint(1e-9));
}

TEST_F(DscaleTest, MwisNotWorseThanGreedyInFirstRound) {
  Network net = balanced_with_branches();
  Design mwis(net, lib_);
  Design greedy(std::move(net), lib_);
  DscaleOptions o1;
  o1.max_rounds = 1;
  DscaleOptions o2 = o1;
  o2.selector = DscaleOptions::Selector::kGreedy;
  const DscaleResult r1 = run_dscale(mwis, o1);
  const DscaleResult r2 = run_dscale(greedy, o2);
  // Exact MWIS maximizes the round's weight; with uniform-ish gains the
  // count is at least as large as greedy's.
  EXPECT_GE(r1.mwis_lowered + 1, r2.mwis_lowered);
}

TEST_F(DscaleTest, LcAwareWeightsAreMoreConservative) {
  Network net = balanced_with_branches();
  Design literal(net, lib_);
  Design aware(std::move(net), lib_);
  DscaleOptions aware_options;
  aware_options.lc_aware_weights = true;
  run_dscale(literal);
  run_dscale(aware, aware_options);
  EXPECT_LE(aware.count_low(), literal.count_low());
  // The conservative variant never loses power relative to plain CVS.
  EXPECT_TRUE(aware.run_timing().meets_constraint(1e-9));
}

TEST_F(DscaleTest, NeverWorseThanCvsWithTrim) {
  for (std::uint64_t seed : {5u, 17u, 23u, 42u}) {
    GridSpec spec;
    spec.gates = 120;
    spec.pis = 12;
    spec.pos = 4;
    spec.slack_branch_fraction = 0.15;
    spec.seed = seed;
    Network net = build_balanced_grid(lib_, spec, "t");
    Design cvs_only(net, lib_);
    run_cvs(cvs_only);
    Design dscale(std::move(net), lib_);
    run_dscale(dscale);
    EXPECT_LE(dscale.run_power().total(),
              cvs_only.run_power().total() + 1e-9)
        << "seed " << seed;
  }
}

TEST_F(DscaleTest, EdmondsKarpBackendAgreesOnCounts) {
  Network net = balanced_with_branches();
  Design dinic(net, lib_);
  Design ek(std::move(net), lib_);
  DscaleOptions options;
  options.flow_algo = FlowAlgo::kEdmondsKarp;
  const DscaleResult r1 = run_dscale(dinic);
  const DscaleResult r2 = run_dscale(ek, options);
  EXPECT_EQ(r1.cvs_lowered, r2.cvs_lowered);
  EXPECT_EQ(dinic.count_low(), ek.count_low());
}

}  // namespace
}  // namespace dvs
