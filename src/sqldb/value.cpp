#include "sqldb/value.h"

#include <cmath>
#include <stdexcept>

namespace edgstr::sqldb {

std::int64_t SqlValue::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* d = std::get_if<double>(&data_)) return static_cast<std::int64_t>(*d);
  throw std::logic_error("SqlValue: not an integer");
}

double SqlValue::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*i);
  throw std::logic_error("SqlValue: not numeric");
}

const std::string& SqlValue::as_text() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  throw std::logic_error("SqlValue: not text");
}

std::string SqlValue::take_text() {
  if (auto* s = std::get_if<std::string>(&data_)) return std::move(*s);
  throw std::logic_error("SqlValue: not text");
}

int SqlValue::compare(const SqlValue& other) const {
  // NULLs order first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;

  if (is_numeric() && other.is_numeric()) {
    const double a = as_double();
    const double b = other.as_double();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (is_text() && other.is_text()) {
    return as_text().compare(other.as_text());
  }
  // Mixed type: numbers order before text (SQLite-style type ordering).
  return is_numeric() ? -1 : 1;
}

namespace {
bool like_match(const std::string& text, std::size_t ti, const std::string& pat,
                std::size_t pi) {
  while (pi < pat.size()) {
    if (pat[pi] == '%') {
      // Collapse consecutive %.
      while (pi < pat.size() && pat[pi] == '%') ++pi;
      if (pi == pat.size()) return true;
      for (std::size_t k = ti; k <= text.size(); ++k) {
        if (like_match(text, k, pat, pi)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (pat[pi] != '_' && pat[pi] != text[ti]) return false;
    ++ti;
    ++pi;
  }
  return ti == text.size();
}
}  // namespace

bool SqlValue::like(const std::string& pattern) const {
  if (!is_text()) return false;
  return like_match(as_text(), 0, pattern, 0);
}

json::Value SqlValue::to_json() const {
  if (is_null()) return json::Value(nullptr);
  if (is_int()) return json::Value(static_cast<double>(std::get<std::int64_t>(data_)));
  if (is_double()) return json::Value(std::get<double>(data_));
  return json::Value(std::get<std::string>(data_));
}

SqlValue SqlValue::from_json(const json::Value& v) {
  switch (v.type()) {
    case json::Value::Type::kNull: return SqlValue();
    case json::Value::Type::kNumber: return from_number(v.as_number());
    case json::Value::Type::kString: return SqlValue(v.as_string());
    case json::Value::Type::kBool: return SqlValue(static_cast<std::int64_t>(v.as_bool()));
    default:
      throw std::invalid_argument("SqlValue::from_json: unsupported JSON type");
  }
}

SqlValue SqlValue::from_number(double d) {
  if (d == std::floor(d) && std::abs(d) < 9.2e18) return SqlValue(static_cast<std::int64_t>(d));
  return SqlValue(d);
}

std::string SqlValue::to_string() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(std::get<std::int64_t>(data_));
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", std::get<double>(data_));
    return buf;
  }
  return "'" + std::get<std::string>(data_) + "'";
}

}  // namespace edgstr::sqldb
