#include "netlist/blif.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "netlist/elaborate.hpp"

namespace dvs {

namespace {

struct NamesDecl {
  std::vector<std::string> inputs;
  std::string output;
  std::vector<std::string> cover;  // "<pattern> <value>" rows, pattern-only
                                   // for zero-input constants
  int line = 0;
};

struct BlifDoc {
  std::string model;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<NamesDecl> names;
};

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

BlifDoc parse(const std::string& text) {
  BlifDoc doc;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  NamesDecl* open_names = nullptr;

  auto logical_lines = [&](std::string& out_line, int& out_no) -> bool {
    out_line.clear();
    while (std::getline(in, raw)) {
      ++line_no;
      if (out_line.empty()) out_no = line_no;
      if (auto hash = raw.find('#'); hash != std::string::npos)
        raw.erase(hash);
      // Continuation: backslash as the last non-space character.
      std::size_t end = raw.find_last_not_of(" \t\r");
      const bool cont =
          end != std::string::npos && raw[end] == '\\';
      if (cont) raw.erase(end);
      out_line += raw;
      if (cont) continue;
      if (out_line.find_first_not_of(" \t\r") == std::string::npos) {
        out_line.clear();
        continue;  // blank line
      }
      return true;
    }
    return !out_line.empty();
  };

  std::string line;
  int at = 0;
  while (logical_lines(line, at)) {
    std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& head = tok.front();
    if (head[0] == '.') {
      open_names = nullptr;
      if (head == ".model") {
        if (tok.size() >= 2) doc.model = tok[1];
      } else if (head == ".inputs") {
        doc.inputs.insert(doc.inputs.end(), tok.begin() + 1, tok.end());
      } else if (head == ".outputs") {
        doc.outputs.insert(doc.outputs.end(), tok.begin() + 1, tok.end());
      } else if (head == ".names") {
        if (tok.size() < 2) throw BlifError(".names needs a signal", at);
        NamesDecl decl;
        decl.inputs.assign(tok.begin() + 1, tok.end() - 1);
        decl.output = tok.back();
        decl.line = at;
        doc.names.push_back(std::move(decl));
        open_names = &doc.names.back();
      } else if (head == ".end") {
        break;
      } else if (head == ".latch") {
        throw BlifError("sequential elements (.latch) are not supported",
                        at);
      } else if (head == ".exdc" || head == ".subckt" ||
                 head == ".gate" || head == ".mlatch") {
        throw BlifError("unsupported construct " + head, at);
      }
      // Unknown dot-directives (.default_input_arrival etc.) are ignored.
    } else {
      if (open_names == nullptr)
        throw BlifError("cover row outside .names: " + line, at);
      open_names->cover.push_back(line);
    }
  }
  if (doc.model.empty()) doc.model = "blif";
  return doc;
}

/// One parsed SOP row: per-input literal (0, 1 or - == 2) and the phase.
struct Cube {
  std::vector<std::uint8_t> literal;
  bool output_value = true;
};

Cube parse_cube(const std::string& row, int num_inputs, int line) {
  std::vector<std::string> tok = tokenize(row);
  Cube cube;
  std::string pattern;
  std::string value;
  if (num_inputs == 0) {
    if (tok.size() != 1)
      throw BlifError("constant cover row must be a single value", line);
    value = tok[0];
  } else {
    if (tok.size() != 2)
      throw BlifError("cover row must be '<pattern> <value>'", line);
    pattern = tok[0];
    value = tok[1];
  }
  if (static_cast<int>(pattern.size()) != num_inputs)
    throw BlifError("cover pattern width mismatch", line);
  for (char c : pattern) {
    if (c == '0')
      cube.literal.push_back(0);
    else if (c == '1')
      cube.literal.push_back(1);
    else if (c == '-')
      cube.literal.push_back(2);
    else
      throw BlifError("bad cover character", line);
  }
  if (value == "1")
    cube.output_value = true;
  else if (value == "0")
    cube.output_value = false;
  else
    throw BlifError("bad cover output value", line);
  return cube;
}

/// Builder that instantiates declarations in dependency order.
class Instantiator {
 public:
  explicit Instantiator(const BlifDoc& doc) : doc_(doc), net_(doc.model) {}

  Network run() {
    // Signals are numbered for the shared walk: the primary inputs, then
    // the .names outputs in declaration order.
    const int num_inputs = static_cast<int>(doc_.inputs.size());
    for (const std::string& name : doc_.inputs) {
      if (!signal_.emplace(name, static_cast<int>(built_.size())).second)
        throw BlifError("signal defined twice: " + name, 0);
      built_.push_back(net_.add_input(name));
    }
    for (const NamesDecl& decl : doc_.names) {
      const auto [it, fresh] =
          signal_.emplace(decl.output, static_cast<int>(built_.size()));
      if (!fresh && it->second < num_inputs)
        throw BlifError("signal " + decl.output +
                            " is both a primary input and a .names output",
                        decl.line);
      if (!fresh)
        throw BlifError("signal driven twice: " + decl.output, decl.line);
      built_.push_back(kNoNode);
    }
    auto decl_of = [&](int signal) -> const NamesDecl& {
      return doc_.names[signal - num_inputs];
    };
    for (int root = num_inputs; root < static_cast<int>(built_.size());
         ++root) {
      elaborate(
          root, built_,
          [&](int signal) -> const std::vector<std::string>& {
            return decl_of(signal).inputs;
          },
          [&](const std::string& name, int user) {
            const auto it = signal_.find(name);
            if (it == signal_.end())
              throw BlifError("undefined signal " + name,
                              decl_of(user).line);
            return it->second;
          },
          [&](int signal, std::vector<NodeId> fanins) {
            return instantiate(decl_of(signal), std::move(fanins));
          },
          [&](int signal) {
            throw BlifError("combinational cycle through " +
                                decl_of(signal).output,
                            decl_of(signal).line);
          });
    }
    for (const std::string& name : doc_.outputs) {
      const auto it = signal_.find(name);
      if (it == signal_.end())
        throw BlifError("undriven primary output " + name, 0);
      net_.add_output(name, built_[it->second]);
    }
    net_.check();
    return std::move(net_);
  }

 private:
  NodeId instantiate(const NamesDecl& decl, std::vector<NodeId> fanins) {
    const int k = static_cast<int>(fanins.size());
    std::vector<Cube> cubes;
    cubes.reserve(decl.cover.size());
    for (const std::string& row : decl.cover)
      cubes.push_back(parse_cube(row, k, decl.line));
    // Empty cover == constant 0 (SIS convention).
    if (cubes.empty()) return net_.add_constant(false, decl.output);
    const bool phase = cubes.front().output_value;
    for (const Cube& c : cubes)
      if (c.output_value != phase)
        throw BlifError("mixed on/off-set cover", decl.line);
    if (k == 0) return net_.add_constant(phase, decl.output);

    if (k <= kMaxGateInputs) {
      TruthTable tt{0, k};
      for (std::uint32_t p = 0; p < (1u << k); ++p) {
        bool covered = false;
        for (const Cube& c : cubes) {
          bool match = true;
          for (int i = 0; i < k && match; ++i) {
            if (c.literal[i] != 2 && c.literal[i] != ((p >> i) & 1u))
              match = false;
          }
          if (match) {
            covered = true;
            break;
          }
        }
        const bool value = phase ? covered : !covered;
        if (value) tt.bits |= 1ULL << p;
      }
      return net_.add_gate(tt, std::move(fanins), -1, decl.output);
    }
    return build_wide_sop(decl, cubes, fanins, phase);
  }

  /// Decomposes a >kMaxGateInputs SOP into 2-input AND/OR trees.
  NodeId build_wide_sop(const NamesDecl& decl, const std::vector<Cube>& cubes,
                        const std::vector<NodeId>& fanins, bool phase) {
    std::vector<NodeId> cube_nodes;
    for (const Cube& cube : cubes) {
      std::vector<NodeId> literals;
      for (std::size_t i = 0; i < cube.literal.size(); ++i) {
        if (cube.literal[i] == 2) continue;
        NodeId lit = fanins[i];
        if (cube.literal[i] == 0) lit = inverted(lit);
        literals.push_back(lit);
      }
      if (literals.empty()) {
        // A cube with no literals covers everything.
        cube_nodes.assign(1, net_.add_constant(true));
        break;
      }
      cube_nodes.push_back(balanced_tree(literals, /*is_and=*/true));
    }
    NodeId sum = balanced_tree(cube_nodes, /*is_and=*/false);
    if (!phase) sum = inverted(sum);
    net_.node(sum).name = decl.output;
    return sum;
  }

  NodeId inverted(NodeId id) {
    auto [it, inserted] = inverter_of_.emplace(id, kNoNode);
    if (inserted) it->second = net_.add_gate(tt_inv(), {id});
    return it->second;
  }

  NodeId balanced_tree(std::vector<NodeId> items, bool is_and) {
    DVS_EXPECTS(!items.empty());
    while (items.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i + 1 < items.size(); i += 2)
        next.push_back(net_.add_gate(is_and ? tt_and(2) : tt_or(2),
                                     {items[i], items[i + 1]}));
      if (items.size() % 2) next.push_back(items.back());
      items = std::move(next);
    }
    return items.front();
  }

  const BlifDoc& doc_;
  Network net_;
  std::unordered_map<std::string, int> signal_;
  std::vector<NodeId> built_;  // per signal, for elaborate()
  std::map<NodeId, NodeId> inverter_of_;
};

}  // namespace

Network read_blif_string(const std::string& text) {
  return Instantiator(parse(text)).run();
}

Network read_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open BLIF file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_blif_string(buf.str());
}

std::string write_blif_string(const Network& net) {
  std::ostringstream out;
  out << ".model " << net.name() << "\n.inputs";
  for (NodeId id : net.inputs()) out << ' ' << net.node(id).name;
  out << "\n.outputs";
  for (const OutputPort& port : net.outputs()) out << ' ' << port.name;
  out << "\n";
  net.for_each_node([&](const Node& n) {
    if (n.is_input()) return;
    out << ".names";
    for (NodeId f : n.fanins) out << ' ' << net.node(f).name;
    out << ' ' << n.name << "\n";
    if (n.is_constant()) {
      if (n.constant_value) out << "1\n";
      return;
    }
    const int k = n.function.num_vars;
    for (std::uint32_t p = 0; p < (1u << k); ++p) {
      if (!n.function.eval(p)) continue;
      for (int i = 0; i < k; ++i) out << (((p >> i) & 1u) ? '1' : '0');
      out << (k ? " 1\n" : "1\n");
    }
  });
  // Ports whose name differs from their driver need an alias buffer.
  for (const OutputPort& port : net.outputs()) {
    if (net.node(port.driver).name != port.name)
      out << ".names " << net.node(port.driver).name << ' ' << port.name
          << "\n1 1\n";
  }
  out << ".end\n";
  return out.str();
}

void write_blif_file(const Network& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write BLIF file: " + path);
  out << write_blif_string(net);
}

}  // namespace dvs
