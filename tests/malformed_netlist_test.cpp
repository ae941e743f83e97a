// Hardening wall for the netlist front-ends: the dvsd daemon feeds
// client-supplied text straight into read_blif_string /
// read_verilog_string, so malformed input of any shape must surface as a
// catchable error (BlifError / VerilogError / runtime_error) — never a
// crash, contract abort, or silent mis-parse.
#include <gtest/gtest.h>

#include <string>

#include "library/library.hpp"
#include "netlist/blif.hpp"
#include "netlist/verilog.hpp"

namespace dvs {
namespace {

const char* kGoodBlif = R"(.model demo
.inputs a b c d
.outputs y z
.names a b t1
11 1
.names c d t2
1- 1
-1 1
.names t1 t2 y
10 1
01 1
.names t2 c z
11 1
.end
)";

TEST(MalformedBlif, GoodReferenceParses) {
  const Network net = read_blif_string(kGoodBlif);
  EXPECT_EQ(net.inputs().size(), 4u);
  EXPECT_EQ(net.outputs().size(), 2u);
}

TEST(MalformedBlif, DuplicateDriverIsAnError) {
  EXPECT_THROW(read_blif_string(".model m\n.inputs a b\n.outputs y\n"
                                ".names a y\n1 1\n"
                                ".names b y\n1 1\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, DrivingAPrimaryInputIsAnError) {
  EXPECT_THROW(read_blif_string(".model m\n.inputs a b\n.outputs b\n"
                                ".names a b\n1 1\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, DuplicateInputIsAnError) {
  EXPECT_THROW(
      read_blif_string(".model m\n.inputs a a\n.outputs a\n.end\n"),
      BlifError);
}

TEST(MalformedBlif, UndrivenOutputIsAnError) {
  EXPECT_THROW(read_blif_string(".model m\n.inputs a\n.outputs y\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, UndefinedFaninIsAnError) {
  EXPECT_THROW(read_blif_string(".model m\n.inputs a\n.outputs y\n"
                                ".names a ghost y\n11 1\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, CombinationalCycleIsAnError) {
  EXPECT_THROW(read_blif_string(".model m\n.inputs a\n.outputs y\n"
                                ".names y x\n1 1\n"
                                ".names x y\n1 1\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, GarbageTokensAreAnError) {
  EXPECT_THROW(read_blif_string("\x01\x02garbage \xff\n.model m\n"),
               BlifError);
  EXPECT_THROW(read_blif_string(".model m\n.inputs a\n.outputs y\n"
                                ".names a y\nxx yy zz\n.end\n"),
               BlifError);
  EXPECT_THROW(read_blif_string(".model m\n.inputs a\n.outputs y\n"
                                ".names a y\n2 1\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, CoverShapeErrors) {
  // Pattern width mismatch.
  EXPECT_THROW(read_blif_string(".model m\n.inputs a b\n.outputs y\n"
                                ".names a b y\n1 1\n.end\n"),
               BlifError);
  // Mixed on/off-set.
  EXPECT_THROW(read_blif_string(".model m\n.inputs a b\n.outputs y\n"
                                ".names a b y\n11 1\n00 0\n.end\n"),
               BlifError);
  // Bad output value.
  EXPECT_THROW(read_blif_string(".model m\n.inputs a\n.outputs y\n"
                                ".names a y\n1 x\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, SequentialAndUnsupportedConstructs) {
  EXPECT_THROW(read_blif_string(".model m\n.latch a b re clk 0\n.end\n"),
               BlifError);
  EXPECT_THROW(read_blif_string(".model m\n.subckt foo a=b\n.end\n"),
               BlifError);
}

TEST(MalformedBlif, ModerateDepthStillParses) {
  std::string text = ".model chain\n.inputs a\n.outputs n1999\n";
  text += ".names a n0\n1 1\n";
  for (int i = 1; i < 2000; ++i) {
    text += ".names n" + std::to_string(i - 1) + " n" +
            std::to_string(i) + "\n1 1\n";
  }
  text += ".end\n";
  EXPECT_NO_THROW(read_blif_string(text));
}

// Truncation sweep: every prefix of a valid document either parses or
// raises a catchable error.  (Runs the parser a few hundred times; the
// point is "no crash", not specific messages.)
TEST(MalformedBlif, EveryTruncationIsHandled) {
  const std::string text = kGoodBlif;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    try {
      read_blif_string(text.substr(0, len));
    } catch (const std::exception&) {
      // Acceptable: an error, not a crash.
    }
  }
}

// ---------------------------------------------------------------------------

const Library& lib() {
  static const Library kLib = build_compass_library();
  return kLib;
}

std::string good_verilog() {
  return write_verilog_string(read_blif_string(kGoodBlif), lib());
}

TEST(MalformedVerilog, GoodReferenceRoundTrips) {
  EXPECT_NO_THROW(read_verilog_string(good_verilog(), lib()));
}

TEST(MalformedVerilog, DuplicateDriverIsAnError) {
  EXPECT_THROW(read_verilog_string("module m (a, y);\n  input a;\n"
                                   "  output y;\n  assign y = a;\n"
                                   "  assign y = ~a;\nendmodule\n",
                                   lib()),
               VerilogError);
}

TEST(MalformedVerilog, DrivingAnInputIsAnError) {
  EXPECT_THROW(read_verilog_string("module m (a, y);\n  input a;\n"
                                   "  output y;\n  assign a = 1'b0;\n"
                                   "  assign y = a;\nendmodule\n",
                                   lib()),
               VerilogError);
  // Same conflict with the assign textually before the declaration.
  EXPECT_THROW(read_verilog_string("module m (a, y);\n"
                                   "  assign a = 1'b0;\n  input a;\n"
                                   "  output y;\n  assign y = a;\n"
                                   "endmodule\n",
                                   lib()),
               VerilogError);
}

TEST(MalformedVerilog, DuplicateInputIsAnError) {
  EXPECT_THROW(read_verilog_string("module m (a, y);\n  input a;\n"
                                   "  input a;\n  output y;\n"
                                   "  assign y = a;\nendmodule\n",
                                   lib()),
               VerilogError);
}

TEST(MalformedVerilog, CycleIsAnError) {
  EXPECT_THROW(read_verilog_string("module m (y);\n  output y;\n"
                                   "  wire a;\n  wire b;\n"
                                   "  assign a = ~b;\n  assign b = ~a;\n"
                                   "  assign y = a;\nendmodule\n",
                                   lib()),
               VerilogError);
}

TEST(MalformedVerilog, UnknownCellAndBadPins) {
  EXPECT_THROW(read_verilog_string("module m (a, y);\n  input a;\n"
                                   "  output y;\n"
                                   "  bogus_cell u0 (.o(y), .i0(a));\n"
                                   "endmodule\n",
                                   lib()),
               VerilogError);
  EXPECT_THROW(read_verilog_string("module m (a, y);\n  input a;\n"
                                   "  output y;\n"
                                   "  inv_d1 u0 (.o(y), .i99999999(a));\n"
                                   "endmodule\n",
                                   lib()),
               VerilogError);
  EXPECT_THROW(read_verilog_string("module m (a, y);\n  input a;\n"
                                   "  output y;\n"
                                   "  inv_d1 u0 (.i0(a));\nendmodule\n",
                                   lib()),
               VerilogError);
}

TEST(MalformedVerilog, StructuralGarbage) {
  EXPECT_THROW(read_verilog_string("", lib()), VerilogError);
  EXPECT_THROW(read_verilog_string("wire w;\n", lib()), VerilogError);
  EXPECT_THROW(read_verilog_string("module m (y);\n  output y;\n"
                                   "  assign y = 1'b1;\n",
                                   lib()),
               VerilogError);  // missing endmodule
  EXPECT_THROW(read_verilog_string("module m (y);\n  output y;\n"
                                   "  assign y = @#$;\nendmodule\n",
                                   lib()),
               VerilogError);
  EXPECT_THROW(read_verilog_string("module m (y);\n  output y;\n"
                                   "  assign y = 1'b1;\nendmodule\n"
                                   "module n (z);\nendmodule\n",
                                   lib()),
               VerilogError);
}

TEST(MalformedVerilog, EveryTruncationIsHandled) {
  const std::string text = good_verilog();
  for (std::size_t len = 0; len <= text.size(); ++len) {
    try {
      read_verilog_string(text.substr(0, len), lib());
    } catch (const std::exception&) {
    }
  }
}

}  // namespace
}  // namespace dvs
