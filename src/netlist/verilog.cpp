#include "netlist/verilog.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "netlist/elaborate.hpp"
#include "support/contracts.hpp"
#include "synth/decompose.hpp"

namespace dvs {

namespace {

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// The base (pre-uniquification) identifier a raw name sanitizes to.
std::string sanitize_ident(const std::string& raw) {
  std::string base;
  for (char c : raw) base += is_ident_char(c) ? c : '_';
  if (base.empty() || (base[0] >= '0' && base[0] <= '9'))
    base = "n_" + base;
  return base;
}

/// Sanitized, uniquified Verilog identifiers for every node and port.
class Namer {
 public:
  std::string name_for(const std::string& raw) {
    const std::string base = sanitize_ident(raw);
    std::string candidate = base;
    int suffix = 1;
    while (!used_.insert(candidate).second)
      candidate = base + "_" + std::to_string(suffix++);
    return candidate;
  }

 private:
  std::set<std::string> used_;
};

}  // namespace

std::string write_verilog_string(const Network& net, const Library& lib) {
  Namer namer;
  const std::string module_name = namer.name_for(net.name());

  std::map<NodeId, std::string> wire;
  net.for_each_node(
      [&](const Node& n) { wire[n.id] = namer.name_for(n.name); });
  // A port whose (non-input) driver holds exactly the port's sanitized
  // identifier collapses onto it — the port *is* the driver's net, as
  // with the alias buffers read_blif materializes; declaring both a wire
  // and a port would rename one of them on every round trip.  Anything
  // else gets a fresh port identifier plus an `assign port = wire` at
  // the end of the module.
  std::vector<std::string> port_names;
  std::set<NodeId> port_merged_drivers;
  for (const OutputPort& port : net.outputs()) {
    if (!net.node(port.driver).is_input() &&
        wire[port.driver] == sanitize_ident(port.name)) {
      port_names.push_back(wire[port.driver]);
      port_merged_drivers.insert(port.driver);
    } else {
      port_names.push_back(namer.name_for(port.name));
    }
  }

  std::ostringstream out;
  out << "// generated by dual-vdd (structural export)\n";
  out << "module " << module_name << " (";
  bool first = true;
  for (NodeId id : net.inputs()) {
    out << (first ? "" : ", ") << wire[id];
    first = false;
  }
  for (const std::string& p : port_names) {
    out << (first ? "" : ", ") << p;
    first = false;
  }
  out << ");\n";
  for (NodeId id : net.inputs()) out << "  input " << wire[id] << ";\n";
  for (const std::string& p : port_names) out << "  output " << p << ";\n";
  net.for_each_node([&](const Node& n) {
    if (!n.is_input() && !port_merged_drivers.count(n.id))
      out << "  wire " << wire[n.id] << ";\n";
  });

  int instance = 0;
  net.for_each_node([&](const Node& n) {
    if (n.is_input()) return;
    if (n.is_constant()) {
      out << "  assign " << wire[n.id] << " = 1'b"
          << (n.constant_value ? 1 : 0) << ";\n";
      return;
    }
    if (n.cell >= 0) {
      const Cell& cell = lib.cell(n.cell);
      out << "  " << cell.name << " u" << instance++ << " (.o("
          << wire[n.id] << ")";
      for (std::size_t pin = 0; pin < n.fanins.size(); ++pin)
        out << ", .i" << pin << "(" << wire[n.fanins[pin]] << ")";
      out << ");\n";
      return;
    }
    // Unmapped gate: emit the function as an assign over its cubes.
    const std::vector<Cube> cover = extract_cubes(n.function);
    out << "  assign " << wire[n.id] << " = ";
    if (cover.empty()) {
      out << "1'b0;\n";
      return;
    }
    for (std::size_t c = 0; c < cover.size(); ++c) {
      if (c) out << " | ";
      bool any = false;
      out << "(";
      for (std::size_t i = 0; i < cover[c].size(); ++i) {
        if (cover[c][i] == 2) continue;
        if (any) out << " & ";
        if (cover[c][i] == 0) out << "~";
        out << wire[n.fanins[i]];
        any = true;
      }
      if (!any) out << "1'b1";  // all-don't-care cube
      out << ")";
    }
    out << ";\n";
  });

  for (std::size_t p = 0; p < net.outputs().size(); ++p) {
    if (port_merged_drivers.count(net.outputs()[p].driver) &&
        port_names[p] == wire[net.outputs()[p].driver])
      continue;  // the port is the driver's net; no alias needed
    out << "  assign " << port_names[p] << " = "
        << wire[net.outputs()[p].driver] << ";\n";
  }
  out << "endmodule\n";
  return out.str();
}

void write_verilog_file(const Network& net, const Library& lib,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write Verilog file: " + path);
  out << write_verilog_string(net, lib);
}

// ---------------------------------------------------------------------------
// Reader for the structural subset the writer above emits.
// ---------------------------------------------------------------------------

namespace {

/// A literal of a sum-of-products assign: variable name and polarity.
struct SopLiteral {
  std::string var;
  bool positive = true;
};
using SopCube = std::vector<SopLiteral>;

/// One net: a module input or the statement that drives it.  A
/// sum-of-products assign becomes a constant or a gate when the build
/// first reaches it.
struct NetDefn {
  enum class Kind { kInput, kConstant, kGate, kSop, kAlias } kind;
  std::string name;
  bool constant_value = false;          // kConstant
  TruthTable function;                  // kGate
  int cell = -1;                        // kGate: library cell or -1
  std::vector<std::string> pin_nets;    // kGate (pin order), kAlias (one)
  std::vector<SopCube> cubes;           // kSop ('true' cube = empty list)
};

/// Splits Verilog text into statements on ';', with comments stripped.
/// The token level is trivial: identifiers (plus the 1'b0 / 1'b1
/// constants) and single-character punctuation.
std::vector<std::vector<std::string>> tokenize_statements(
    const std::string& text) {
  std::vector<std::vector<std::string>> statements;
  std::vector<std::string> current;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == ';') {
      if (!current.empty()) statements.push_back(std::move(current));
      current.clear();
      ++i;
    } else if (is_ident_char(c) || c == '\'') {
      std::string token;
      while (i < text.size() &&
             (is_ident_char(text[i]) || text[i] == '\''))
        token += text[i++];
      current.push_back(std::move(token));
    } else if (c == '(' || c == ')' || c == ',' || c == '.' || c == '=' ||
               c == '~' || c == '&' || c == '|') {
      current.push_back(std::string(1, c));
      ++i;
    } else {
      throw VerilogError(std::string("unexpected character '") + c + "'");
    }
  }
  if (!current.empty()) statements.push_back(std::move(current));
  return statements;
}

/// Parses the right-hand side of an assign (token span after '=') into
/// cubes: OR of AND-terms of optionally negated identifiers, with
/// optional parentheses around each term, plus the 1'b0 / 1'b1 forms.
std::vector<SopCube> parse_sop(const std::vector<std::string>& tokens,
                               std::size_t begin) {
  std::vector<SopCube> cubes;
  SopCube cube;
  bool in_parens = false;
  bool cube_is_false = false;
  bool cube_has_term = false;  // rejects empty terms ("a |;", "| b")
  auto flush = [&]() {
    if (!cube_has_term) throw VerilogError("empty term in assign");
    if (!cube_is_false) cubes.push_back(std::move(cube));
    cube.clear();
    cube_is_false = false;
    cube_has_term = false;
  };
  for (std::size_t i = begin; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t == "(") {
      in_parens = true;
    } else if (t == ")") {
      in_parens = false;
    } else if (t == "&") {
      // continue current cube
    } else if (t == "|") {
      if (in_parens) throw VerilogError("'|' inside a cube");
      flush();
    } else if (t == "~") {
      if (i + 1 >= tokens.size() || !is_ident_char(tokens[i + 1][0]))
        throw VerilogError("dangling '~'");
      cube.push_back({tokens[++i], false});
      cube_has_term = true;
    } else if (t == "1'b1") {
      cube_has_term = true;  // neutral for AND: the constant-true cube
    } else if (t == "1'b0") {
      cube_is_false = true;
      cube_has_term = true;
    } else if (is_ident_char(t[0])) {
      cube.push_back({t, true});
      cube_has_term = true;
    } else {
      throw VerilogError("unexpected token '" + t + "' in assign");
    }
  }
  flush();
  return cubes;
}

/// Evaluates a cube list over variables in first-appearance order into a
/// truth table (the inverse of the writer's cube emission).
TruthTable sop_truth_table(const std::vector<SopCube>& cubes,
                           std::vector<std::string>* vars) {
  vars->clear();
  auto var_index = [&](const std::string& name) {
    for (std::size_t i = 0; i < vars->size(); ++i)
      if ((*vars)[i] == name) return static_cast<int>(i);
    vars->push_back(name);
    return static_cast<int>(vars->size() - 1);
  };
  std::vector<std::vector<std::pair<int, bool>>> indexed;
  for (const SopCube& cube : cubes) {
    indexed.emplace_back();
    for (const SopLiteral& lit : cube)
      indexed.back().emplace_back(var_index(lit.var), lit.positive);
  }
  const int n = static_cast<int>(vars->size());
  if (n > kMaxGateInputs)
    throw VerilogError("assign with more than " +
                       std::to_string(kMaxGateInputs) + " distinct inputs");
  TruthTable tt;
  tt.num_vars = n;
  for (std::uint32_t p = 0; p < (1u << n); ++p) {
    bool value = false;
    for (const auto& cube : indexed) {
      bool all = true;
      for (const auto& [var, positive] : cube)
        if ((((p >> var) & 1u) != 0) != positive) all = false;
      if (all) {
        value = true;
        break;
      }
    }
    if (value) tt.bits |= 1ULL << p;
  }
  return tt;
}

/// Builds the Network from parsed declarations; statements may reference
/// nets defined later.
class VerilogInstantiator {
 public:
  explicit VerilogInstantiator(std::string module_name)
      : net_(std::move(module_name)) {}

  void add_input(const std::string& name) {
    const auto [it, fresh] =
        net_of_.emplace(name, static_cast<int>(defns_.size()));
    if (!fresh && defns_[it->second].kind == NetDefn::Kind::kInput)
      throw VerilogError("input '" + name + "' declared twice");
    if (!fresh)
      throw VerilogError("net '" + name +
                         "' is an input and cannot be driven");
    NetDefn input;
    input.kind = NetDefn::Kind::kInput;
    input.name = name;
    defns_.push_back(std::move(input));
    built_.push_back(net_.add_input(name));
  }
  void add_defn(const std::string& name, NetDefn defn) {
    const auto [it, fresh] =
        net_of_.emplace(name, static_cast<int>(defns_.size()));
    if (!fresh && defns_[it->second].kind == NetDefn::Kind::kInput)
      throw VerilogError("net '" + name +
                         "' is an input and cannot be driven");
    if (!fresh) throw VerilogError("net '" + name + "' defined twice");
    defn.name = name;
    defns_.push_back(std::move(defn));
    built_.push_back(kNoNode);
  }

  Network finish(const std::vector<std::string>& outputs) {
    for (const std::string& out : outputs) {
      const auto it = net_of_.find(out);
      if (it == net_of_.end() ||
          defns_[it->second].kind == NetDefn::Kind::kInput)
        throw VerilogError("output '" + out + "' is never assigned");
      // An alias resolves to its driver, so a port alias adds no gate
      // (mirrors read_blif).
      net_.add_output(out, build(it->second));
    }
    // Logic not reachable from any port is still part of the module;
    // build it too (in declaration order) so the round trip preserves
    // dangling gates exactly as read_blif does.
    for (int net = 0; net < static_cast<int>(defns_.size()); ++net)
      build(net);
    net_.check();
    return std::move(net_);
  }

 private:
  NodeId build(int root) {
    return elaborate(
        root, built_,
        [&](int net) -> const std::vector<std::string>& {
          NetDefn& defn = defns_[net];
          if (defn.kind == NetDefn::Kind::kSop) {
            std::vector<std::string> vars;
            const TruthTable tt = sop_truth_table(defn.cubes, &vars);
            if (vars.empty()) {
              defn.kind = NetDefn::Kind::kConstant;
              defn.constant_value = tt.bits & 1u;
            } else {
              defn.kind = NetDefn::Kind::kGate;
              defn.function = tt;
              defn.pin_nets = std::move(vars);
            }
          }
          return defn.pin_nets;
        },
        [&](const std::string& name, int /*user*/) {
          const auto it = net_of_.find(name);
          if (it == net_of_.end())
            throw VerilogError("undefined net '" + name + "'");
          return it->second;
        },
        [&](int net, std::vector<NodeId> fanins) {
          const NetDefn& defn = defns_[net];
          if (defn.kind == NetDefn::Kind::kConstant)
            return net_.add_constant(defn.constant_value, defn.name);
          if (defn.kind == NetDefn::Kind::kAlias) return fanins[0];
          return net_.add_gate(defn.function, std::move(fanins), defn.cell,
                               defn.name);
        },
        [&](int net) {
          throw VerilogError("combinational cycle through '" +
                             defns_[net].name + "'");
        });
  }

  Network net_;
  std::unordered_map<std::string, int> net_of_;
  std::vector<NetDefn> defns_;  // every net, in declaration order
  std::vector<NodeId> built_;   // per net, for elaborate()
};

}  // namespace

Network read_verilog_string(const std::string& text, const Library& lib) {
  const auto statements = tokenize_statements(text);
  if (statements.empty()) throw VerilogError("empty source");

  std::string module_name;
  std::vector<std::string> outputs;
  std::unique_ptr<VerilogInstantiator> inst;
  bool done = false;

  for (const std::vector<std::string>& s : statements) {
    const std::string& head = s[0];
    if (done) throw VerilogError("text after endmodule");
    if (head == "module") {
      if (inst) throw VerilogError("only one module is supported");
      if (s.size() < 2) throw VerilogError("module without a name");
      module_name = s[1];
      inst = std::make_unique<VerilogInstantiator>(module_name);
      // Port list tokens are redundant with the input/output decls.
    } else if (!inst) {
      throw VerilogError("statement before module header");
    } else if (head == "endmodule") {
      done = true;
    } else if (head == "input") {
      for (std::size_t i = 1; i < s.size(); ++i)
        if (s[i] != ",") inst->add_input(s[i]);
    } else if (head == "output") {
      for (std::size_t i = 1; i < s.size(); ++i)
        if (s[i] != ",") outputs.push_back(s[i]);
    } else if (head == "wire") {
      // Declarations carry no structure; definitions come from assigns
      // and instances.
    } else if (head == "assign") {
      if (s.size() < 4 || s[2] != "=")
        throw VerilogError("malformed assign");
      const std::string& lhs = s[1];
      NetDefn defn;
      if (s.size() == 4 && s[3] == "1'b0") {
        defn.kind = NetDefn::Kind::kConstant;
        defn.constant_value = false;
      } else if (s.size() == 4 && s[3] == "1'b1") {
        defn.kind = NetDefn::Kind::kConstant;
        defn.constant_value = true;
      } else if (s.size() == 4 && is_ident_char(s[3][0])) {
        defn.kind = NetDefn::Kind::kAlias;
        defn.pin_nets = {s[3]};
      } else {
        defn.kind = NetDefn::Kind::kSop;
        defn.cubes = parse_sop(s, 3);
      }
      inst->add_defn(lhs, std::move(defn));
    } else if (is_ident_char(head[0])) {
      // Cell instance: CELL instname ( .o(net) , .iK(net) ... )
      const int cell = lib.find(head);
      if (cell < 0) throw VerilogError("unknown cell '" + head + "'");
      NetDefn defn;
      defn.kind = NetDefn::Kind::kGate;
      defn.function = lib.cell(cell).function;
      defn.cell = cell;
      std::string output_net;
      std::vector<std::pair<int, std::string>> pins;
      for (std::size_t i = 2; i < s.size(); ++i) {
        if (s[i] != ".") continue;
        if (i + 4 >= s.size() || s[i + 2] != "(" || s[i + 4] != ")")
          throw VerilogError("malformed pin connection on '" + head + "'");
        const std::string& pin = s[i + 1];
        const std::string& net_name = s[i + 3];
        if (pin == "o") {
          output_net = net_name;
        } else if (pin.size() > 1 && pin.size() <= 7 && pin[0] == 'i' &&
                   pin.find_first_not_of("0123456789", 1) ==
                       std::string::npos) {
          // <= 6 digits: atoi cannot overflow, and any in-range pin index
          // is far below the per-cell bound checked right after.
          pins.emplace_back(std::atoi(pin.c_str() + 1), net_name);
        } else {
          throw VerilogError("unknown pin '." + pin + "'");
        }
        i += 4;
      }
      if (output_net.empty())
        throw VerilogError("instance of '" + head + "' without .o");
      if (static_cast<int>(pins.size()) != lib.cell(cell).num_inputs())
        throw VerilogError("instance of '" + head +
                           "' with wrong pin count");
      defn.pin_nets.resize(pins.size());
      for (const auto& [index, net_name] : pins) {
        if (index < 0 || index >= static_cast<int>(pins.size()) ||
            !defn.pin_nets[index].empty())
          throw VerilogError("bad pin index on '" + head + "'");
        defn.pin_nets[index] = net_name;
      }
      inst->add_defn(output_net, std::move(defn));
    } else {
      throw VerilogError("unsupported statement starting with '" + head +
                         "'");
    }
  }
  if (!inst) throw VerilogError("no module found");
  if (!done) throw VerilogError("missing endmodule");
  return inst->finish(outputs);
}

}  // namespace dvs
