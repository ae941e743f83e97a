// Integration: the full paper flow on a handful of suite circuits, plus
// the BLIF -> map -> dual-Vdd pipeline.
#include <gtest/gtest.h>

#include "benchgen/mcnc.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "netlist/blif.hpp"
#include "synth/mapper.hpp"

namespace dvs {
namespace {

class FlowTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  CircuitRunResult run(const char* name) {
    const McncDescriptor* d = find_mcnc(name);
    EXPECT_NE(d, nullptr) << name;
    Network net = build_mcnc_circuit(lib_, *d);
    FlowOptions options;
    options.activity.num_vectors = 1024;  // keep the test quick
    return run_pipeline_job(net, lib_, options, options.activity.seed,
                            paper_specs())
        .row;
  }
};

TEST_F(FlowTest, GscaleDominatesOnBalancedCircuit) {
  const CircuitRunResult row = run("z4ml");
  EXPECT_NEAR(row.cvs_improve_pct, 0.0, 0.5);
  EXPECT_GT(row.gscale_improve_pct, row.cvs_improve_pct + 3.0);
  EXPECT_GT(row.gscale_low, row.cvs_low);
}

TEST_F(FlowTest, WideCircuitGivesCvsPlenty) {
  const CircuitRunResult row = run("lal");  // paper CVS ratio 0.71
  EXPECT_GT(row.cvs_improve_pct, 5.0);
  EXPECT_GE(row.dscale_low, row.cvs_low);
  EXPECT_GE(row.gscale_improve_pct, row.cvs_improve_pct - 0.5);
}

TEST_F(FlowTest, MaxedCircuitIsFrozen) {
  const CircuitRunResult row = run("i2");
  EXPECT_NEAR(row.cvs_improve_pct, 0.0, 0.2);
  EXPECT_NEAR(row.gscale_improve_pct, 0.0, 0.2);
  EXPECT_EQ(row.gscale_resized, 0);
}

TEST_F(FlowTest, RowFieldsAreConsistent) {
  const CircuitRunResult row = run("x2");
  EXPECT_GT(row.org_power_uw, 0.0);
  EXPECT_GT(row.tspec_ns, 0.0);
  EXPECT_GE(row.cvs_low, 0);
  EXPECT_LE(row.cvs_low, row.num_gates);
  EXPECT_GE(row.gscale_area_increase, 0.0);
  EXPECT_LE(row.gscale_area_increase, 0.101);
  EXPECT_GE(row.cvs_low_ratio(), 0.0);
  EXPECT_LE(row.gscale_low_ratio(), 1.0);
}

TEST_F(FlowTest, ReportFormattingSmoke) {
  const CircuitRunResult row = run("x2");
  const McncDescriptor* d = find_mcnc("x2");
  const std::optional<PaperRow> paper = d->paper;
  EXPECT_FALSE(format_table1_header().empty());
  EXPECT_NE(format_table1_row(row, paper).find("x2"), std::string::npos);
  EXPECT_NE(format_table2_row(row, paper).find("x2"), std::string::npos);
  const std::vector<CircuitRunResult> rows{row};
  const std::vector<std::optional<PaperRow>> papers{paper};
  EXPECT_FALSE(format_table1_footer(rows, papers).empty());
  EXPECT_FALSE(format_table2_footer(rows, papers).empty());
}

TEST_F(FlowTest, BlifMapDualVddPipeline) {
  const char* blif = R"(
.model pipeline
.inputs a b c d e
.outputs y z
.names a b t1
11 1
.names c d t2
1- 1
-1 1
.names t1 t2 e y
111 1
.names t2 e z
10 1
01 1
.end
)";
  Network src = read_blif_string(blif);
  const PaperSetupResult setup = map_paper_setup(src, lib_, 0.2);
  FlowOptions options;
  options.activity.num_vectors = 512;
  const CircuitRunResult row =
      run_pipeline_job(setup.mapped, lib_, options, options.activity.seed,
                       paper_specs())
          .row;
  EXPECT_GT(row.org_power_uw, 0.0);
  EXPECT_GE(row.gscale_improve_pct, -0.01);
}

}  // namespace
}  // namespace dvs
