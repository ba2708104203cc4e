#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

namespace sqlcm::common {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return "BOOL";
    case ValueKind::kInt:
      return "INT";
    case ValueKind::kDouble:
      return "DOUBLE";
    case ValueKind::kString:
      return "STRING";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  const bool a_num = is_numeric();
  const bool b_num = other.is_numeric();
  if (a_num && b_num) {
    // Compare int/int exactly to avoid double rounding on big ints.
    if (is_int() && other.is_int()) {
      const int64_t a = int_value(), b = other.int_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (kind() != other.kind()) {
    return static_cast<int>(kind()) < static_cast<int>(other.kind()) ? -1 : 1;
  }
  switch (kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool: {
      const int a = bool_value() ? 1 : 0, b = other.bool_value() ? 1 : 0;
      return a - b;
    }
    case ValueKind::kString:
      return string_value().compare(other.string_value());
    default:
      return 0;  // unreachable: numeric handled above
  }
}

size_t Value::Hash() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0x9e3779b97f4a7c15ull;
    case ValueKind::kBool:
      return bool_value() ? 0x5bd1e995u : 0xc2b2ae35u;
    case ValueKind::kInt:
      // Hash ints through double so 1 and 1.0 land in the same bucket,
      // consistent with Compare()'s numeric equality.
      return std::hash<double>()(static_cast<double>(int_value()));
    case ValueKind::kDouble:
      return std::hash<double>()(double_value());
    case ValueKind::kString:
      return std::hash<std::string>()(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case ValueKind::kInt:
      return std::to_string(int_value());
    case ValueKind::kDouble:
      return FormatDoubleShortest(double_value());
    case ValueKind::kString: {
      std::string out = "'";
      for (char c : string_value()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
  }
  return "?";
}

std::string Value::ToDisplayString() const {
  if (is_string()) return string_value();
  return ToString();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

std::string FormatDoubleShortest(double d) {
  if (std::isnan(d)) return "nan";
  if (std::isinf(d)) return d < 0 ? "-inf" : "inf";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    const double parsed = std::strtod(buf, nullptr);
    // Bitwise comparison: distinguishes -0.0 from 0.0 and is exact for
    // denormals, unlike ==.
    if (std::memcmp(&parsed, &d, sizeof(double)) == 0) break;
  }
  return buf;
}

size_t HashRow(const Row& row) {
  size_t h = kHashRowSeed;
  for (const Value& v : row) h = HashRowStep(h, v.Hash());
  return h;
}

namespace {

bool BothNumericOrNull(const Value& a, const Value& b, Result<Value>* out) {
  if (a.is_null() || b.is_null()) {
    *out = Value::Null();
    return false;
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    *out = Status::TypeError("arithmetic on non-numeric values: " +
                             a.ToString() + ", " + b.ToString());
    return false;
  }
  return true;
}

}  // namespace

Result<Value> ValueAdd(const Value& a, const Value& b) {
  Result<Value> early = Value::Null();
  if (!BothNumericOrNull(a, b, &early)) return early;
  if (a.is_int() && b.is_int()) return Value::Int(a.int_value() + b.int_value());
  return Value::Double(a.AsDouble() + b.AsDouble());
}

Result<Value> ValueSub(const Value& a, const Value& b) {
  Result<Value> early = Value::Null();
  if (!BothNumericOrNull(a, b, &early)) return early;
  if (a.is_int() && b.is_int()) return Value::Int(a.int_value() - b.int_value());
  return Value::Double(a.AsDouble() - b.AsDouble());
}

Result<Value> ValueMul(const Value& a, const Value& b) {
  Result<Value> early = Value::Null();
  if (!BothNumericOrNull(a, b, &early)) return early;
  if (a.is_int() && b.is_int()) return Value::Int(a.int_value() * b.int_value());
  return Value::Double(a.AsDouble() * b.AsDouble());
}

Result<Value> ValueDiv(const Value& a, const Value& b) {
  Result<Value> early = Value::Null();
  if (!BothNumericOrNull(a, b, &early)) return early;
  const double d = b.AsDouble();
  if (d == 0.0) return Status::InvalidArgument("division by zero");
  return Value::Double(a.AsDouble() / d);
}

Result<Value> ValueNeg(const Value& a) {
  if (a.is_null()) return Value::Null();
  if (a.is_int()) return Value::Int(-a.int_value());
  if (a.is_double()) return Value::Double(-a.double_value());
  return Status::TypeError("negation of non-numeric value: " + a.ToString());
}

}  // namespace sqlcm::common
