// The supply ladder: an ordered list of supply voltages ("rungs") the
// design may assign per gate, generalizing the paper's fixed dual-Vdd
// (5.0V, 4.3V) operating point to N levels.
//
// Rung 0 is the highest (nominal) voltage and indices grow as voltage
// drops, so "deeper" always means "lower voltage, cheaper energy, slower
// gate".  The level-converter policy is positional: a converter is
// required on a driver's output exactly when a strictly deeper (lower
// voltage) driver feeds a strictly shallower (higher voltage) sink —
// stepping down needs nothing, stepping up needs restoration.  Converters
// themselves run at the top rung, matching the power/timing models.
//
// The ladder is part of the Library's operating point: its canonical
// fingerprint is folded into Library::fingerprint, which is how the dvsd
// result cache distinguishes jobs run at different ladders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "library/voltage_model.hpp"
#include "support/json.hpp"

namespace dvs {

/// Rung index into a SupplyLadder.  0 = highest voltage.
using SupplyId = std::uint8_t;

inline constexpr SupplyId kTopRung = 0;

/// Validation failures carry the exact message the dvsd protocol schema
/// reports, so every surface (daemon options, suite_bench / dvs-client
/// --supplies flags) rejects a bad ladder with identical text.
class SupplyError : public std::runtime_error {
 public:
  explicit SupplyError(const std::string& message)
      : std::runtime_error(message) {}
};

class SupplyLadder {
 public:
  static constexpr int kMinRungs = 2;
  static constexpr int kMaxRungs = 8;
  static constexpr double kMinVoltage = 1.0;   // V
  static constexpr double kMaxVoltage = 10.0;  // V

  /// The paper's dual-supply operating point.
  SupplyLadder() : voltages_{5.0, 4.3} {}

  /// Strictly descending voltages, kMinRungs..kMaxRungs entries, each in
  /// [kMinVoltage, kMaxVoltage].  Throws SupplyError (schema text).
  explicit SupplyLadder(std::vector<double> voltages);

  int depth() const { return static_cast<int>(voltages_.size()); }
  SupplyId deepest() const { return static_cast<SupplyId>(depth() - 1); }

  double voltage(SupplyId rung) const;
  double top() const { return voltages_.front(); }
  double bottom() const { return voltages_.back(); }
  const std::vector<double>& voltages() const { return voltages_; }

  /// Converter policy: a driver at `driver` feeding a sink at `sink`
  /// needs level restoration iff the sink sits on a strictly shallower
  /// (higher voltage) rung.
  static bool converter_needed(SupplyId driver, SupplyId sink) {
    return sink < driver;
  }

  /// Per-rung delay factors under `vm` (vm.delay_factor at each rung's
  /// voltage), indexable by SupplyId.  The timing kernel and the hot
  /// loops hoist this once per analysis or sweep instead of re-evaluating
  /// the alpha-power model per gate.
  std::vector<double> delay_factors(const VoltageModel& vm) const;

  /// Canonical comma-separated spelling ("5,4.3,3.6": shortest double
  /// spelling that round-trips, no spaces) — parse(spec()) is a fixpoint.
  std::string spec() const;

  /// Canonical JSON array of rung voltages.
  Json to_json() const;

  /// 64-bit hash over the canonical voltages; equal ladders (however
  /// they were spelled on the way in) hash equal.
  std::uint64_t fingerprint() const;

  bool operator==(const SupplyLadder&) const = default;

 private:
  std::vector<double> voltages_;
};

/// Parses "5.0,4.3,3.6" (also accepts whitespace around entries).
/// Throws SupplyError with the schema-verbatim texts:
///   "supplies must list between 2 and 8 voltages"
///   "supplies must be strictly descending"
///   "supplies out of range"
SupplyLadder parse_supply_ladder(const std::string& text);

/// Protocol form: a JSON string in the comma-separated grammar or an
/// array of numbers.  Same validation and error texts as the parser.
SupplyLadder supply_ladder_from_json(const Json& value);

// ---- shared wire spellings --------------------------------------------------
// Every JSON emitter spells the per-design supply columns through these
// helpers instead of scattering "low" literals per call site.

/// Key of the "gates below the top rung" count in result/bench rows.
inline constexpr const char* kLowGatesKey = "low";

/// Human name of a rung: "high" for the top rung, "low" for the deepest,
/// "v<index>" for intermediate rungs of deeper ladders.
std::string supply_rung_name(SupplyId rung, int depth);

/// Canonical JSON array of per-rung gate counts (index = SupplyId).
Json supply_counts_json(const std::vector<int>& counts);

}  // namespace dvs
