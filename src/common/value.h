// Dynamically-typed SQL value used throughout the engine and the monitor.
//
// Probe values in SQLCM are "cast to SQL Server types, enabling the use of
// all aggregation functions provided by the database server" (paper §4.1);
// mirroring that, the engine and the monitoring framework share this one
// value type.
#ifndef SQLCM_COMMON_VALUE_H_
#define SQLCM_COMMON_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace sqlcm::common {

/// Runtime type tag of a Value.
enum class ValueKind : uint8_t {
  kNull = 0,
  kBool,
  kInt,     // 64-bit signed
  kDouble,  // IEEE double (SQL FLOAT)
  kString,  // also used for BLOB-ish payloads such as signatures
};

const char* ValueKindName(ValueKind kind);

/// A single SQL value. Copyable; strings are the only allocating kind.
class Value {
 public:
  /// Constructs NULL.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(std::in_place_index<1>, v)); }
  static Value Int(int64_t v) { return Value(Rep(std::in_place_index<2>, v)); }
  static Value Double(double v) {
    return Value(Rep(std::in_place_index<3>, v));
  }
  static Value String(std::string v) {
    return Value(Rep(std::in_place_index<4>, std::move(v)));
  }

  /// Makes this a STRING holding `text`, reusing the current string's
  /// capacity when this already is one (no allocation when it fits).
  void AssignString(std::string_view text) {
    if (std::string* s = std::get_if<4>(&rep_)) {
      s->assign(text);
    } else {
      rep_.emplace<4>(text);
    }
  }

  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Preconditions: matching kind(). Checked in debug builds via variant.
  bool bool_value() const { return std::get<1>(rep_); }
  int64_t int_value() const { return std::get<2>(rep_); }
  double double_value() const { return std::get<3>(rep_); }
  const std::string& string_value() const { return std::get<4>(rep_); }

  /// Numeric widening: int or double value as double. Precondition: numeric.
  double AsDouble() const {
    return is_int() ? static_cast<double>(int_value()) : double_value();
  }

  /// Three-way ordering used by indexes, sorts and LAT ordering columns.
  /// NULL sorts before everything; numeric kinds compare by numeric value;
  /// otherwise kinds must match (mismatched kinds order by kind tag, which
  /// keeps the comparator a strict weak order even on heterogenous data).
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// SQL equality for grouping: NULLs group together, 1 == 1.0.
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (numeric kinds hash by double value).
  size_t Hash() const;

  /// Approximate in-memory footprint (used by LAT byte-size accounting).
  size_t ApproxBytes() const {
    return sizeof(Value) + (is_string() ? string_value().capacity() : 0);
  }

  /// Render for CSV persist / debug: NULL, TRUE, 42, 3.5, 'text'.
  std::string ToString() const;

  /// Unquoted rendering used when substituting attribute values into
  /// SendMail / RunExternal template strings.
  std::string ToDisplayString() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Shortest decimal rendering of `d` that parses back (strtod) to exactly
/// the same bits: tries 15/16/17 significant digits and returns the first
/// that round-trips. Used by Value::ToString and the CSV/snapshot codec so
/// doubles survive arbitrarily many persist/restore cycles bit-exactly.
/// Non-finite values render as "inf" / "-inf" / "nan" (strtod-parsable).
std::string FormatDoubleShortest(double d);

/// A row of values; the universal tuple currency of the engine.
using Row = std::vector<Value>;

/// Hash of a sequence of values (group keys, composite index keys).
size_t HashRow(const Row& row);

/// HashRow's seed and per-value step, for callers that hash a key without
/// materialising it as a Row (the monitor's borrowed LAT probes): folding
/// each value's Hash() through HashRowStep from kHashRowSeed gives HashRow.
inline constexpr size_t kHashRowSeed = 0x811c9dc5u;
inline size_t HashRowStep(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

struct RowHasher {
  size_t operator()(const Row& row) const { return HashRow(row); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
};

// Arithmetic with SQL NULL propagation; TypeError on non-numeric operands.
Result<Value> ValueAdd(const Value& a, const Value& b);
Result<Value> ValueSub(const Value& a, const Value& b);
Result<Value> ValueMul(const Value& a, const Value& b);
/// Division always yields double; division by zero is an InvalidArgument.
Result<Value> ValueDiv(const Value& a, const Value& b);
Result<Value> ValueNeg(const Value& a);

}  // namespace sqlcm::common

#endif  // SQLCM_COMMON_VALUE_H_
