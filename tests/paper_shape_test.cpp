// Regression guard for the reproduction itself: runs the full 39-circuit
// flow and asserts the paper's qualitative results (the "shape") hold.
// If a library or algorithm change breaks the Table 1 / Table 2 story,
// this is the test that fails.
#include <gtest/gtest.h>

#include "benchgen/mcnc.hpp"
#include "core/job.hpp"
#include "netlist/blif.hpp"
#include "sim/bitsim.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

class PaperShapeTest : public ::testing::Test {
 protected:
  static const std::vector<CircuitRunResult>& rows() {
    static const std::vector<CircuitRunResult> kRows = [] {
      const Library lib = build_compass_library();
      std::vector<CircuitRunResult> out;
      for (const McncDescriptor& d : mcnc_suite()) {
        Network net = build_mcnc_circuit(lib, d);
        FlowOptions options;
        options.activity.num_vectors = 2048;
        out.push_back(run_pipeline_job(net, lib, options,
                                       options.activity.seed, paper_specs())
                          .row);
      }
      return out;
    }();
    return kRows;
  }

  static const CircuitRunResult& row(const char* name) {
    for (const CircuitRunResult& r : rows())
      if (r.name == name) return r;
    ADD_FAILURE() << "no row " << name;
    static CircuitRunResult dummy;
    return dummy;
  }
};

TEST_F(PaperShapeTest, AveragesMatchThePaperBand) {
  double cvs = 0, dscale = 0, gscale = 0;
  for (const CircuitRunResult& r : rows()) {
    cvs += r.cvs_improve_pct;
    dscale += r.dscale_improve_pct;
    gscale += r.gscale_improve_pct;
  }
  const double n = rows().size();
  EXPECT_NEAR(cvs / n, 10.27, 2.5);    // paper: 10.27
  EXPECT_NEAR(dscale / n, 12.09, 2.5); // paper: 12.09
  EXPECT_NEAR(gscale / n, 19.12, 4.0); // paper: 19.12
  EXPECT_GE(dscale, cvs);              // Dscale never loses to CVS
  EXPECT_GT(gscale / n, cvs / n * 1.7);  // Gscale ~2x CVS
}

// The Gscale columns sit measurably above the paper's (DESIGN.md,
// "Gscale fidelity gap").  Pinning the three suite means tightly makes
// any move of the gap, wider or narrower, a deliberate update rather
// than a drift inside the band above.
TEST_F(PaperShapeTest, GscaleFidelityGapIsPinned) {
  double improve = 0, area = 0, ratio = 0;
  double paper_improve = 0, paper_area = 0, paper_ratio = 0;
  for (std::size_t i = 0; i < rows().size(); ++i) {
    const CircuitRunResult& r = rows()[i];
    const PaperRow& paper = mcnc_suite()[i].paper;
    improve += r.gscale_improve_pct;
    area += r.gscale_area_increase;
    ratio += r.gscale_low_ratio();
    paper_improve += paper.gscale_pct;
    paper_area += paper.area_increase;
    paper_ratio += paper.gscale_ratio;
  }
  const double n = rows().size();
  EXPECT_NEAR(improve / n, 22.43, 0.25)
      << "Gscale improvement %; paper: " << paper_improve / n;
  EXPECT_NEAR(area / n, 0.0598, 0.005)
      << "Gscale area increase; paper: " << paper_area / n;
  EXPECT_NEAR(ratio / n, 0.915, 0.01)
      << "Gscale low-gate ratio; paper: " << paper_ratio / n;
}

TEST_F(PaperShapeTest, ZeroCvsCircuits) {
  for (const char* name :
       {"C1355", "C432", "C499", "f51m", "i2", "mux", "z4ml"}) {
    EXPECT_NEAR(row(name).cvs_improve_pct, 0.0, 1e-6) << name;
    EXPECT_EQ(row(name).cvs_low, 0) << name;
    // ... and Gscale unlocks them anyway (except frozen i2).
    if (std::string(name) != "i2") {
      EXPECT_GT(row(name).gscale_improve_pct, 10.0) << name;
    }
  }
}

TEST_F(PaperShapeTest, FrozenCircuits) {
  EXPECT_NEAR(row("i2").gscale_improve_pct, 0.0, 0.5);
  EXPECT_EQ(row("i2").gscale_resized, 0);
  EXPECT_NEAR(row("i3").cvs_improve_pct, row("i3").gscale_improve_pct,
              0.5);
  EXPECT_NEAR(row("pcle").cvs_improve_pct, row("pcle").gscale_improve_pct,
              0.5);
}

TEST_F(PaperShapeTest, CvsRatiosTrackTable2) {
  int within = 0, total = 0;
  for (std::size_t i = 0; i < rows().size(); ++i) {
    const McncDescriptor& d = mcnc_suite()[i];
    ++total;
    if (std::abs(rows()[i].cvs_low_ratio() - d.paper.cvs_ratio) <= 0.10)
      ++within;
  }
  // At least ~80% of circuits within 0.10 of the published ratio.
  EXPECT_GE(within * 10, total * 8) << within << "/" << total;
}

TEST_F(PaperShapeTest, MonotoneAlgorithmOrderingPerCircuit) {
  for (const CircuitRunResult& r : rows()) {
    EXPECT_GE(r.dscale_low, r.cvs_low) << r.name;
    EXPECT_GE(r.gscale_improve_pct, r.cvs_improve_pct - 0.01) << r.name;
    EXPECT_LE(r.gscale_area_increase, 0.101) << r.name;
  }
}

TEST(SuiteRoundTrip, BlifPreservesSuiteCircuits) {
  const Library lib = build_compass_library();
  Rng rng(5);
  for (const char* name : {"z4ml", "x2", "pm1", "i1", "mux"}) {
    const McncDescriptor* d = find_mcnc(name);
    Network net = build_mcnc_circuit(lib, *d);
    Network again = read_blif_string(write_blif_string(net));
    BitSimulator s1(net), s2(again);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<bool> in;
      for (std::size_t i = 0; i < net.inputs().size(); ++i)
        in.push_back(rng.next_bool());
      EXPECT_EQ(s1.evaluate(in), s2.evaluate(in)) << name;
    }
  }
}

}  // namespace
}  // namespace dvs
