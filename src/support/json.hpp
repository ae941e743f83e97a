// Minimal JSON value: parser and serializer for the dvsd wire protocol
// (newline-delimited JSON requests/responses) and for canonicalizing flow
// options into cache keys.  Objects are stored in a std::map, so dump()
// always emits keys in sorted order — serializing the same logical value
// twice yields byte-identical text, which is what makes hashing a dumped
// document a sound cache-key ingredient.
//
// Integers are kept exact: a token without '.', 'e' or 'E' is stored as a
// 64-bit integer (unsigned when non-negative), so RNG seeds survive the
// round trip that a double would mangle.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dvs {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message)
      : std::runtime_error("json: " + message) {}
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), num_(Num::from_double(d)) {}
  Json(int i) : type_(Type::kNumber), num_(Num::from_int(i)) {}
  Json(std::int64_t i) : type_(Type::kNumber), num_(Num::from_int(i)) {}
  Json(std::uint64_t u) : type_(Type::kNumber), num_(Num::from_uint(u)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  /// Parses one JSON document; trailing non-space content is an error.
  /// Throws JsonError on malformed input (bounded nesting depth).
  static Json parse(std::string_view text);

  /// Compact serialization (no whitespace, sorted object keys).
  std::string dump() const;

  Type type() const { return type_; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;

 private:
  struct Num {
    enum class Repr { kDouble, kInt, kUint } repr = Repr::kDouble;
    double dbl = 0.0;
    std::int64_t int_v = 0;
    std::uint64_t uint_v = 0;
    static Num from_double(double d) { return {Repr::kDouble, d, 0, 0}; }
    static Num from_int(std::int64_t i);
    static Num from_uint(std::uint64_t u) {
      return {Repr::kUint, 0.0, 0, u};
    }
  };

  void dump_to(std::string* out) const;

  Type type_;
  bool bool_ = false;
  Num num_;
  std::string string_;
  Array array_;
  Object object_;

  friend class JsonParser;
};

/// Appends `s` to `out` as a quoted JSON string (escapes per RFC 8259).
void json_append_quoted(std::string* out, std::string_view s);

/// FNV-1a 64-bit over raw bytes — the hash behind cache-key components.
std::uint64_t fnv1a64(std::string_view bytes);

/// Shortest %g spelling that strtod's back to the same bits — the
/// double spelling shared by every canonical spec (pipeline options,
/// supply ladders), so "1e-09" never becomes 17-digit noise and
/// parse(canonical) stays a fixpoint.
std::string shortest_double_spelling(double v);

}  // namespace dvs
