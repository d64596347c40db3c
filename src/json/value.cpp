#include "json/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace edgstr::json {

bool Object::contains(std::string_view key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

const Value& Object::at(std::string_view key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  throw std::out_of_range("json::Object::at: missing key '" + std::string(key) + "'");
}

Value& Object::at(std::string_view key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  throw std::out_of_range("json::Object::at: missing key '" + std::string(key) + "'");
}

void Object::set(std::string key, Value value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::move(key), std::move(value));
}

void Object::append(std::string key, Value value) {
  entries_.emplace_back(std::move(key), std::move(value));
}

void Object::reserve(std::size_t n) { entries_.reserve(n); }

bool Object::erase(std::string_view key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

bool Object::operator==(const Object& other) const {
  // Key order is not semantically significant for equality.
  if (entries_.size() != other.entries_.size()) return false;
  for (const auto& [k, v] : entries_) {
    if (!other.contains(k) || !(other.at(k) == v)) return false;
  }
  return true;
}

Value Value::object(std::initializer_list<std::pair<std::string, Value>> entries) {
  Object obj;
  for (const auto& [k, v] : entries) obj.set(k, v);
  return Value(std::move(obj));
}

Value Value::array(std::initializer_list<Value> items) { return Value(Array(items)); }

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  throw std::logic_error("json::Value: not a bool");
}

double Value::as_number() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  throw std::logic_error("json::Value: not a number");
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  throw std::logic_error("json::Value: not a string");
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  throw std::logic_error("json::Value: not an array");
}

Array& Value::as_array() {
  if (Array* a = std::get_if<Array>(&data_)) return *a;
  throw std::logic_error("json::Value: not an array");
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  throw std::logic_error("json::Value: not an object");
}

Object& Value::as_object() {
  if (Object* o = std::get_if<Object>(&data_)) return *o;
  throw std::logic_error("json::Value: not an object");
}

const Value& Value::operator[](std::string_view key) const { return as_object().at(key); }

const Value& Value::operator[](std::size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) throw std::out_of_range("json::Value: array index out of range");
  return arr[index];
}

const Value* Value::find(std::string_view key) const {
  const Object* obj = std::get_if<Object>(&data_);
  if (!obj) return nullptr;
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Value::operator==(const Value& other) const { return data_ == other.data_; }

namespace {

void write_escaped(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_number(double d, std::string& out) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  // Integral values below 1e15 print as plain integers (printf "%.0f",
  // "-0" included); everything else in "%.17g" form. std::to_chars writes
  // the same digits without printf's format parsing and locale lookups.
  char buf[32];
  std::to_chars_result r;
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    if (d == 0 && std::signbit(d)) {
      out += "-0";
      return;
    }
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 17);
  }
  out.append(buf, r.ptr);
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += (std::get<bool>(data_) ? "true" : "false"); return;
    case Type::kNumber: write_number(std::get<double>(data_), out); return;
    case Type::kString: write_escaped(std::get<std::string>(data_), out); return;
    case Type::kArray: {
      const Array& arr = std::get<Array>(data_);
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out.push_back(',');
        indent_to(out, indent, depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      const Object& obj = std::get<Object>(data_);
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out.push_back(',');
        first = false;
        indent_to(out, indent, depth + 1);
        write_escaped(k, out);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        v.write(out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Value::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

std::size_t Value::wire_size() const {
  return dump().size();
}

}  // namespace edgstr::json
