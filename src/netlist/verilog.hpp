// Structural Verilog export for mapped netlists, the handoff format a
// downstream place-and-route flow would consume.  Mapped gates become
// cell instances with positional-convention pin names (.o for the
// output, .i0/.i1/... for the inputs, matching the library pin order);
// unmapped gates are emitted as `assign` sum-of-products so any network
// can be exported.  Names are sanitized to Verilog identifiers and
// uniquified.
#pragma once

#include <stdexcept>
#include <string>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace dvs {

/// Serializes the network as a structural Verilog module.  `lib` resolves
/// mapped cell names; pass the library the network was mapped with.
std::string write_verilog_string(const Network& net, const Library& lib);

void write_verilog_file(const Network& net, const Library& lib,
                        const std::string& path);

class VerilogError : public std::runtime_error {
 public:
  explicit VerilogError(const std::string& message)
      : std::runtime_error("verilog: " + message) {}
};

/// Parses the structural subset `write_verilog_string` emits back into a
/// Network: module header, input/output/wire declarations, library-cell
/// instances (restored to mapped gates through `lib`), constant and
/// sum-of-products `assign`s, and output-port aliases.  This closes the
/// BLIF -> Verilog -> BLIF round trip; anything outside the subset (no
/// behavioral constructs, no vectors, one module) throws VerilogError.
///
/// Known lossy corner: an *unmapped* gate whose function ignores one of
/// its fanins emits no literal for it, so the read-back gate drops that
/// fanin (and its driver loses the pin load).  Mapped instances and the
/// BLIF path keep such fanins; the synthesis flow never produces them.
Network read_verilog_string(const std::string& text, const Library& lib);

}  // namespace dvs
