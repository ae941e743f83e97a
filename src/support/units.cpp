#include "support/units.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dvs {

std::string format_fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string format_percent(double x) { return format_fixed(100.0 * x, 2); }

bool parse_bytes(const char* text, std::size_t* out) {
  // strtoull takes a sign and wraps "-1" to 2^64 - 1: only a digit may
  // start the number.
  const char* begin = text;
  while (std::isspace(static_cast<unsigned char>(*begin))) ++begin;
  if (!std::isdigit(static_cast<unsigned char>(*begin))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(begin, &end, 0);
  if (errno == ERANGE) return false;
  unsigned long long scale = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': scale = 1ull << 10; break;
      case 'm': case 'M': scale = 1ull << 20; break;
      case 'g': case 'G': scale = 1ull << 30; break;
      default: return false;
    }
    if (end[1] != '\0') return false;
  }
  if (value > std::numeric_limits<std::size_t>::max() / scale) return false;
  *out = static_cast<std::size_t>(value * scale);
  return true;
}

}  // namespace dvs
