// A minimal, complete JSON library: value model, recursive-descent parser,
// and writer. Serialization substrate for the .fixy scene format (no
// third-party JSON dependency is available offline).
#ifndef FIXY_JSON_JSON_H_
#define FIXY_JSON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"

namespace fixy::json {

class Value;

using Array = std::vector<Value>;
/// Object keys are kept sorted (std::map) so serialization is canonical and
/// round-trips are stable.
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

/// A JSON value. Numbers are stored as double (sufficient for this
/// library's data: coordinates, scores, counts, ids below 2^53).
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(int64_t i) : data_(static_cast<double>(i)) {}
  Value(uint64_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; each aborts if the value has a different type. Use
  /// the Get* helpers below for fallible access.
  bool AsBool() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  /// Fallible object-member lookup with type checking. GetInt64 reads the
  /// number through ToInt64.
  Result<bool> GetBool(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;
  Result<int64_t> GetInt64(const std::string& key) const;
  Result<std::string> GetString(const std::string& key) const;

  /// Pointer to the member, or nullptr if absent (or if this is not an
  /// object).
  const Value* Find(const std::string& key) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// 2^53: every integer up to it is a double, and so a JSON number, exactly;
/// 2^53 + 1 is not. The ceiling for seeds and counts stored as numbers.
inline constexpr uint64_t kMaxExactInteger = uint64_t{1} << 53;

/// The integer a JSON number names: every integer JSON number a reader
/// turns into int64_t goes through here, because casting a double outside
/// int64_t's range is undefined. Errors: InvalidArgument naming `key`
/// unless `number` is integral and in [-2^63, 2^63).
Result<int64_t> ToInt64(double number, const std::string& key);

/// Parses a complete JSON document. Errors: InvalidArgument with a
/// line/column-annotated message on malformed input; trailing non-space
/// characters are an error.
///
/// A number is the longest run of an optional '-', digits, an optional
/// '.' and digits, and an optional exponent; it is converted in place by
/// std::from_chars (correctly rounded, no locale involved). The run is
/// more lenient than JSON's grammar: "1.", ".5" and "01" parse. A value
/// too small for a subnormal parses to ±0; one past DBL_MAX is an error.
Result<Value> Parse(std::string_view text);

/// Serializes `value`. With `pretty`, uses 2-space indentation.
///
/// Numbers are written by std::to_chars, with no locale involved: -0.0 as
/// "-0", an integral value below 1e15 in magnitude as an integer, and
/// every other finite value as printf's "%.17g" would print it, so every
/// double parses back to the same bits.
///
/// Non-finite numbers (NaN, +/-Infinity) have no JSON representation and
/// are written as `null` — the emitted document always re-parses, and the
/// information loss is explicit at the reader (which sees a type mismatch
/// rather than a silently corrupted number).
std::string Write(const Value& value, bool pretty = false);

}  // namespace fixy::json

#endif  // FIXY_JSON_JSON_H_
