// Pins what the netlist builders produce, byte for byte: the exact text
// (and BLIF line) of the readers' undefined-name, cycle and undriven-output
// errors; the node order of netlists read back from BLIF and from
// Verilog with their statements shuffled; and the mapped networks of the
// 39 MCNC stand-ins, with their subject graphs, fanout lists and timing
// constraints.  Node ids feed topology hashes, mapping fingerprints,
// cache keys and every float fold in the timing and power engines, and
// fanout lists set the order `topo_order` walks, so a builder may change
// how it walks or edits a netlist but never the order in which it creates
// nodes or lists their readers.  A failure prints the dump it hashed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "benchgen/random_dag.hpp"
#include "netlist/blif.hpp"
#include "netlist/verilog.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "synth/decompose.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace dvs {
namespace {

const Library& lib() {
  static const Library kLib = build_compass_library();
  return kLib;
}

void expect_pinned(std::uint64_t expected, const std::string& dump,
                   const char* what) {
  EXPECT_EQ(expected, fnv1a64(dump))
      << what << " changed; its dump was:\n"
      << dump;
}

std::string blif_error(const std::string& text) {
  try {
    read_blif_string(text);
  } catch (const BlifError& e) {
    return e.what();
  }
  return "(parsed)";
}

std::string verilog_error(const std::string& text) {
  try {
    read_verilog_string(text, lib());
  } catch (const VerilogError& e) {
    return e.what();
  }
  return "(parsed)";
}

TEST(BlifErrorText, UndefinedSignal) {
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names a ghost y\n11 1\n.end\n"),
            "blif:4: undefined signal ghost");
  // Reported at the line of the declaration that reads the name, found
  // two levels below the first root.
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names t y\n1 1\n"
                       ".names a u t\n11 1\n"
                       ".names ghost u\n1 1\n.end\n"),
            "blif:8: undefined signal ghost");
}

TEST(BlifErrorText, Cycle) {
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names y x\n1 1\n"
                       ".names x y\n1 1\n.end\n"),
            "blif:4: combinational cycle through x");
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names y a x\n11 1\n.names x a y\n11 1\n.end\n"),
            "blif:4: combinational cycle through x");
  // A self-loop, and a cycle entered below the root it is reached from.
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names a y y\n11 1\n.end\n"),
            "blif:4: combinational cycle through y");
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names p y\n1 1\n"
                       ".names q p\n1 1\n"
                       ".names a p q\n11 1\n.end\n"),
            "blif:6: combinational cycle through p");
}

TEST(BlifErrorText, FirstErrorInPinOrderWins) {
  // Pin 0's cone holds a cycle, pin 1 an undefined name: the cycle is
  // found first.  With the pins swapped the undefined name is.
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names c ghost y\n11 1\n"
                       ".names c c2\n1 1\n"
                       ".names c2 c\n1 1\n.end\n"),
            "blif:8: combinational cycle through c");
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n"
                       ".names ghost c y\n11 1\n"
                       ".names c c2\n1 1\n"
                       ".names c2 c\n1 1\n.end\n"),
            "blif:4: undefined signal ghost");
}

TEST(BlifErrorText, UndrivenOutput) {
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs y\n.end\n"),
            "blif:0: undriven primary output y");
  EXPECT_EQ(blif_error(".model m\n.inputs a\n.outputs a z y\n"
                       ".names a y\n1 1\n.end\n"),
            "blif:0: undriven primary output z");
  try {
    read_blif_string(".model m\n.inputs a\n.outputs y\n"
                     ".names a ghost y\n11 1\n.end\n");
    ADD_FAILURE() << "parsed";
  } catch (const BlifError& e) {
    EXPECT_EQ(e.line_number, 4);
  }
}

TEST(VerilogErrorText, UndefinedNet) {
  EXPECT_EQ(verilog_error("module m (a, y);\n  input a;\n  output y;\n"
                          "  assign y = a & ghost;\nendmodule\n"),
            "verilog: undefined net 'ghost'");
  EXPECT_EQ(verilog_error("module m (a, y);\n  input a;\n  output y;\n"
                          "  inv_d1 u0 (.o(y), .i0(t));\n"
                          "  assign t = ghost;\nendmodule\n"),
            "verilog: undefined net 'ghost'");
}

TEST(VerilogErrorText, Cycle) {
  EXPECT_EQ(verilog_error("module m (y);\n  output y;\n"
                          "  wire a;\n  wire b;\n"
                          "  assign a = ~b;\n  assign b = ~a;\n"
                          "  assign y = a;\nendmodule\n"),
            "verilog: combinational cycle through 'a'");
  EXPECT_EQ(verilog_error("module m (y);\n  output y;\n"
                          "  assign y = y;\nendmodule\n"),
            "verilog: combinational cycle through 'y'");
  // Reached only from the declaration-order pass, not from a port.
  EXPECT_EQ(verilog_error("module m (a, y);\n  input a;\n  output y;\n"
                          "  assign y = a;\n"
                          "  inv_d1 u0 (.o(p), .i0(q));\n"
                          "  inv_d1 u1 (.o(q), .i0(p));\nendmodule\n"),
            "verilog: combinational cycle through 'p'");
}

TEST(VerilogErrorText, FirstErrorInPinOrderWins) {
  EXPECT_EQ(verilog_error("module m (y);\n  output y;\n"
                          "  assign y = c & ghost;\n"
                          "  assign c = ~c2;\n  assign c2 = ~c;\n"
                          "endmodule\n"),
            "verilog: combinational cycle through 'c'");
  EXPECT_EQ(verilog_error("module m (y);\n  output y;\n"
                          "  assign y = ghost & c;\n"
                          "  assign c = ~c2;\n  assign c2 = ~c;\n"
                          "endmodule\n"),
            "verilog: undefined net 'ghost'");
  // An assign too wide for one gate is rejected when the walk reaches
  // it, before the nets it reads are built.
  EXPECT_EQ(verilog_error("module m (y);\n  output y;\n"
                          "  assign y = a & b & c & d & e & f & g;\n"
                          "endmodule\n"),
            "verilog: assign with more than 6 distinct inputs");
}

TEST(VerilogErrorText, UndrivenOutput) {
  EXPECT_EQ(verilog_error("module m (a, y);\n  input a;\n  output y;\n"
                          "endmodule\n"),
            "verilog: output 'y' is never assigned");
  // Ports are built in order, so port 0's error comes first.
  EXPECT_EQ(verilog_error("module m (a, y, z);\n  input a;\n"
                          "  output y;\n  output z;\n"
                          "  assign y = ghost;\nendmodule\n"),
            "verilog: undefined net 'ghost'");
  EXPECT_EQ(verilog_error("module m (a, y, z);\n  input a;\n"
                          "  output z;\n  output y;\n"
                          "  assign y = ghost;\nendmodule\n"),
            "verilog: output 'z' is never assigned");
}

// ---- node order -----------------------------------------------------------

/// One line per node in id order (kind, name, cell, function, fanin
/// names), then the output ports.
std::string node_order(const Network& net) {
  std::ostringstream out;
  net.for_each_node([&](const Node& n) {
    out << n.id << ' ' << static_cast<int>(n.kind) << ' ' << n.name << ' '
        << n.cell << ' ' << n.function.num_vars << ':' << n.function.bits
        << ' ' << n.constant_value << " <-";
    for (NodeId f : n.fanins) out << ' ' << net.node(f).name;
    out << '\n';
  });
  for (const OutputPort& port : net.outputs())
    out << "port " << port.name << " = " << net.node(port.driver).name
        << '\n';
  return out.str();
}

void shuffle(std::vector<std::string>& items, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.next_below(i)]);
}

/// BLIF text with its .names blocks (header line plus cover rows) in a
/// seeded random order.
std::string shuffle_blif(const std::string& text, std::uint64_t seed) {
  std::istringstream in(text);
  std::string head, line;
  std::vector<std::string> blocks;
  while (std::getline(in, line)) {
    if (line.rfind(".names", 0) == 0)
      blocks.push_back(line + '\n');
    else if (line == ".end")
      break;
    else if (blocks.empty())
      head += line + '\n';
    else
      blocks.back() += line + '\n';
  }
  shuffle(blocks, seed);
  for (const std::string& b : blocks) head += b;
  return head + ".end\n";
}

/// Verilog text with its instance and assign statements in a seeded
/// random order (the writer puts one statement on each line).
std::string shuffle_verilog(const std::string& text, std::uint64_t seed) {
  std::istringstream in(text);
  std::string head, line;
  std::vector<std::string> body;
  while (std::getline(in, line)) {
    if (line == "endmodule") break;
    const bool decl = line.rfind("//", 0) == 0 ||
                      line.rfind("module", 0) == 0 ||
                      line.rfind("  input", 0) == 0 ||
                      line.rfind("  output", 0) == 0 ||
                      line.rfind("  wire", 0) == 0;
    if (decl)
      head += line + '\n';
    else
      body.push_back(line + '\n');
  }
  shuffle(body, seed);
  for (const std::string& s : body) head += s;
  return head + "endmodule\n";
}

TEST(ReadBackOrder, ShuffledStatements) {
  std::string dump;
  for (const char* name : {"C432", "alu4", "des"}) {
    const Network net = build_mcnc_circuit(lib(), *find_mcnc(name));
    const std::string blif = write_blif_string(net);
    const std::string verilog = write_verilog_string(net, lib());
    const std::pair<const char*, std::string> views[] = {
        {"blif", node_order(read_blif_string(blif))},
        {"blif-shuffled",
         node_order(read_blif_string(shuffle_blif(blif, 17)))},
        {"verilog", node_order(read_verilog_string(verilog, lib()))},
        {"verilog-shuffled",
         node_order(read_verilog_string(shuffle_verilog(verilog, 17),
                                        lib()))},
    };
    for (const auto& [view, order] : views) {
      char line[96];
      std::snprintf(line, sizeof line, "%s %s %016llx\n", name, view,
                    static_cast<unsigned long long>(fnv1a64(order)));
      dump += line;
    }
  }
  expect_pinned(0x27c2505f51e7b6a0ULL, dump, "read-back node order");
}

TEST(MappedOrder, McncStandInsAfterBlifRoundTrip) {
  std::string dump;
  for (const McncDescriptor& d : mcnc_suite()) {
    Network net = read_blif_string(
        write_blif_string(build_mcnc_circuit(lib(), d)));
    sweep_network(net);
    const PaperSetupResult setup = map_paper_setup(net, lib());
    char line[96];
    std::snprintf(line, sizeof line, "%s %016llx\n", d.name,
                  static_cast<unsigned long long>(
                      fnv1a64(node_order(setup.mapped))));
    dump += line;
  }
  expect_pinned(0xe2247144d83c8f8aULL, dump, "mapped networks");
}

/// One line per live node in id order (kind, name, cell, function, fanin
/// ids, then its fanout list in order), then the output ports.
std::string structure(const Network& net) {
  std::ostringstream out;
  net.for_each_node([&](const Node& n) {
    out << n.id << ' ' << static_cast<int>(n.kind) << ' ' << n.name << ' '
        << n.cell << ' ' << n.function.num_vars << ':' << n.function.bits
        << ' ' << n.constant_value << " <-";
    for (NodeId f : n.fanins) out << ' ' << f;
    out << " ->";
    for (NodeId f : n.fanouts) out << ' ' << f;
    out << '\n';
  });
  for (const OutputPort& port : net.outputs())
    out << "port " << port.name << " = " << port.driver << '\n';
  return out.str();
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// The 39 stand-ins as MappedOrder reads them, plus a 2,500-gate hybrid
/// circuit: the subject graph the mapper covers (a copy swept,
/// decomposed to NAND2/INV and swept again), the mapped network with
/// every fanout list in order, and the bits of tmin and tspec.
TEST(MappedOrder, SubjectGraphsFanoutListsAndConstraints) {
  std::vector<Network> circuits;
  for (const McncDescriptor& d : mcnc_suite())
    circuits.push_back(build_mcnc_circuit(lib(), d));
  HybridSpec spec;
  spec.gates = 2500;
  spec.pis = 32;
  spec.pos = 16;
  spec.critical_fraction = 0.35;
  spec.seed = 23;
  circuits.push_back(build_hybrid_circuit(lib(), spec, "hybrid2500"));
  std::string dump;
  for (const Network& circuit : circuits) {
    Network net = read_blif_string(write_blif_string(circuit));
    sweep_network(net);
    Network subject = net;
    sweep_network(subject);
    subject = decompose_to_nand2(subject);
    sweep_network(subject);
    const PaperSetupResult setup = map_paper_setup(net, lib());
    char line[160];
    std::snprintf(
        line, sizeof line, "%s %016llx %016llx %016llx %016llx\n",
        circuit.name().c_str(),
        static_cast<unsigned long long>(fnv1a64(structure(subject))),
        static_cast<unsigned long long>(fnv1a64(structure(setup.mapped))),
        static_cast<unsigned long long>(bits_of(setup.tmin)),
        static_cast<unsigned long long>(bits_of(setup.tspec)));
    dump += line;
  }
  expect_pinned(0x9d1b813728690cb3ULL, dump,
                "subject graphs, fanout lists and constraints");
}

}  // namespace
}  // namespace dvs
