// Unit conventions used across the library, plus small formatting helpers.
//
//   time         : nanoseconds (ns)
//   capacitance  : femtofarads (fF)
//   voltage      : volts (V)
//   frequency    : megahertz (MHz)
//   area         : square micrometres (um^2)
//   power        : microwatts (uW)
//
// With those choices, switching power comes out directly in microwatts:
//   P[uW] = a01 * f[MHz] * C[fF] * V[V]^2 * 1e-3
#pragma once

#include <cstddef>
#include <string>

namespace dvs {

/// 1e-3 factor that converts (MHz * fF * V^2) into microwatts.
inline constexpr double kSwitchPowerToMicrowatt = 1e-3;

/// Formats `v` with `prec` digits after the decimal point.
std::string format_fixed(double v, int prec);

/// Formats a ratio `x` as a percentage with two decimals, e.g. "19.12".
std::string format_percent(double x);

/// Parses a byte count "N", "NK", "NM" or "NG" (suffix case-insensitive,
/// powers of 1024; N as strtoull reads it in base 0) into `*out`.
/// Returns false, leaving `*out` alone, on a missing number, a sign,
/// trailing garbage, or a count that does not fit in a size_t.
bool parse_bytes(const char* text, std::size_t* out);

}  // namespace dvs
