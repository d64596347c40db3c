#include "json/value.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "util/strings.h"

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

Value* Value::find(std::string_view key) {
  return const_cast<Value*>(std::as_const(*this).find(key));
}

bool Value::operator==(const Value& other) const { return data_ == other.data_; }

namespace {

// The sinks of the one JSON writer. Each takes single characters and
// string pieces; the writer never needs more.

struct StringSink {
  std::string& out;
  void put(char c) { out.push_back(c); }
  void put(std::string_view piece) { out.append(piece); }
};

struct CountSink {
  std::size_t bytes = 0;
  void put(char) { ++bytes; }
  void put(std::string_view piece) { bytes += piece.size(); }
};

struct HashSink {
  std::uint64_t hash = util::kFnv1aBasis;
  void put(char c) { hash = util::fnv1a_append(hash, std::string_view(&c, 1)); }
  void put(std::string_view piece) { hash = util::fnv1a_append(hash, piece); }
};

template <class Sink>
void write_escaped(std::string_view s, Sink& out) {
  out.put('"');
  // Characters that need no escape go out in runs, not one at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.put(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out.put("\\\""); break;
      case '\\': out.put("\\\\"); break;
      case '\n': out.put("\\n"); break;
      case '\r': out.put("\\r"); break;
      case '\t': out.put("\\t"); break;
      case '\b': out.put("\\b"); break;
      case '\f': out.put("\\f"); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.put(std::string_view(escape, sizeof(escape)));
      }
    }
  }
  out.put(s.substr(run));
  out.put('"');
}

template <class Sink>
void write_number(double d, Sink& out) {
  if (std::isnan(d) || std::isinf(d)) {
    out.put("null");  // JSON has no NaN/Inf
    return;
  }
  // Integral values below 1e15 print as plain integers (printf "%.0f",
  // "-0" included); everything else in "%.17g" form. std::to_chars writes
  // the same digits without printf's format parsing and locale lookups.
  char buf[32];
  std::to_chars_result r;
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    if (d == 0 && std::signbit(d)) {
      out.put("-0");
      return;
    }
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 17);
  }
  out.put(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

template <class Sink>
void indent_to(Sink& out, int indent, int depth) {
  if (indent <= 0) return;
  out.put('\n');
  for (int i = 0; i < indent * depth; ++i) out.put(' ');
}

template <class Sink>
void write_value(const Value& v, Sink& out, int indent, int depth) {
  switch (v.type()) {
    case Value::Type::kNull: out.put("null"); return;
    case Value::Type::kBool: out.put(v.as_bool() ? "true" : "false"); return;
    case Value::Type::kNumber: write_number(v.as_number(), out); return;
    case Value::Type::kString: write_escaped(v.as_string(), out); return;
    case Value::Type::kArray: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out.put("[]");
        return;
      }
      out.put('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out.put(',');
        indent_to(out, indent, depth + 1);
        write_value(arr[i], out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out.put(']');
      return;
    }
    case Value::Type::kObject: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out.put("{}");
        return;
      }
      out.put('{');
      bool first = true;
      for (const auto& [k, item] : obj) {
        if (!first) out.put(',');
        first = false;
        indent_to(out, indent, depth + 1);
        write_escaped(k, out);
        out.put(':');
        if (indent > 0) out.put(' ');
        write_value(item, out, indent, depth + 1);
      }
      indent_to(out, indent, depth);
      out.put('}');
      return;
    }
  }
}

}  // namespace

std::string Value::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

void Value::dump_to(std::string* out) const {
  StringSink sink{*out};
  write_value(*this, sink, 0, 0);
}

std::string Value::dump_pretty() const {
  std::string out;
  StringSink sink{out};
  write_value(*this, sink, 2, 0);
  return out;
}

std::size_t Value::wire_size() const {
  CountSink sink;
  write_value(*this, sink, 0, 0);
  return sink.bytes;
}

std::uint64_t Value::fnv1a() const {
  HashSink sink;
  write_value(*this, sink, 0, 0);
  return sink.hash;
}

void dump_string_to(std::string_view text, std::string* out) {
  StringSink sink{*out};
  write_escaped(text, sink);
}

std::size_t string_wire_size(std::string_view text) {
  CountSink sink;
  write_escaped(text, sink);
  return sink.bytes;
}

std::size_t number_wire_size(double number) {
  CountSink sink;
  write_number(number, sink);
  return sink.bytes;
}

}  // namespace edgstr::json
