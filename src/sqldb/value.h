// Dynamically-typed SQL cell values.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "json/value.h"

namespace edgstr::sqldb {

/// A cell: NULL, 64-bit integer, double, or text.
class SqlValue {
 public:
  SqlValue() : data_(nullptr) {}
  SqlValue(std::nullptr_t) : data_(nullptr) {}
  SqlValue(std::int64_t i) : data_(i) {}
  SqlValue(int i) : data_(static_cast<std::int64_t>(i)) {}
  SqlValue(double d) : data_(d) {}
  SqlValue(std::string s) : data_(std::move(s)) {}
  SqlValue(const char* s) : data_(std::string(s)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_text() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  std::int64_t as_int() const;
  double as_double() const;  ///< also converts ints
  const std::string& as_text() const;
  /// Moves the text out, leaving this cell's string empty.
  std::string take_text();

  /// SQL comparison; NULL compares equal only to NULL and is ordered first.
  /// Returns <0, 0, >0.
  int compare(const SqlValue& other) const;
  bool operator==(const SqlValue& other) const { return compare(other) == 0; }
  bool operator<(const SqlValue& other) const { return compare(other) < 0; }

  /// SQL LIKE with % (any run) and _ (single char) wildcards.
  bool like(const std::string& pattern) const;

  /// Lossless JSON round trip used by snapshots and CRDT-Table payloads.
  json::Value to_json() const;
  static SqlValue from_json(const json::Value& v);
  /// A JSON number as a cell: integral values within int64 range become
  /// ints, the rest doubles (from_json's rule for numbers).
  static SqlValue from_number(double d);

  std::string to_string() const;  ///< debug/printing form

 private:
  std::variant<std::nullptr_t, std::int64_t, double, std::string> data_;
};

}  // namespace edgstr::sqldb
