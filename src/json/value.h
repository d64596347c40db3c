// JSON document model.
//
// Used throughout the stack: HTTP request/response bodies, MiniJS object
// values marshaled over the wire, state snapshots, and CRDT-JSON payloads.
// Objects preserve insertion order (like JavaScript) so generated code and
// serialized snapshots are deterministic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace edgstr::json {

class Value;

/// Order-preserving string -> Value map (JavaScript object semantics).
class Object {
 public:
  using Entry = std::pair<std::string, Value>;

  Object() = default;

  bool contains(std::string_view key) const;
  /// Returns the value for key; throws std::out_of_range if missing.
  const Value& at(std::string_view key) const;
  Value& at(std::string_view key);
  /// Inserts or overwrites.
  void set(std::string key, Value value);
  /// Appends a key the object does not hold yet, skipping set()'s
  /// duplicate scan. For builders whose keys are unique by construction.
  void append(std::string key, Value value);
  void reserve(std::size_t n);
  /// Removes the key if present; returns whether it was present.
  bool erase(std::string_view key);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }
  std::vector<Entry>::iterator begin() { return entries_.begin(); }
  std::vector<Entry>::iterator end() { return entries_.end(); }

  bool operator==(const Object& other) const;

 private:
  std::vector<Entry> entries_;
};

using Array = std::vector<Value>;

/// A JSON value: null, bool, number (double), string, array, or object.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(std::int64_t i) : data_(static_cast<double>(i)) {}
  Value(std::size_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  /// Convenience factory for object literals:
  ///   Value::object({{"a", 1}, {"b", "x"}})
  static Value object(std::initializer_list<std::pair<std::string, Value>> entries);
  static Value array(std::initializer_list<Value> items);

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw std::logic_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; throws if not an object / key missing.
  const Value& operator[](std::string_view key) const;
  /// Array element access; throws if not an array / out of bounds.
  const Value& operator[](std::size_t index) const;

  /// Object lookup returning nullptr when absent (or when not an object).
  const Value* find(std::string_view key) const;
  Value* find(std::string_view key);

  // One writer serves three sinks: dump() appends the text to a string,
  // wire_size() only counts its bytes, and fnv1a() hashes them. The last
  // two never build the text, and all three share one traversal, one
  // number formatter and one escaper, so they cannot disagree.

  /// Serializes to compact JSON text.
  std::string dump() const;
  /// Appends dump() to `*out`, so a caller can stream pieces into one text.
  void dump_to(std::string* out) const;
  /// Serializes with 2-space indentation.
  std::string dump_pretty() const;

  /// Wire size in bytes: dump().size(), counted without building the
  /// text. Used for network accounting.
  std::size_t wire_size() const;

  /// util::fnv1a(dump()), hashed without building the text.
  std::uint64_t fnv1a() const;

  bool operator==(const Value& other) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Appends Value(text).dump() (the quoted, escaped string) to `*out`.
void dump_string_to(std::string_view text, std::string* out);
/// dump().size() of Value(text), counted without building it.
std::size_t string_wire_size(std::string_view text);
/// dump().size() of Value(number), counted without building it.
std::size_t number_wire_size(double number);

/// Deep structural equality helper (alias for operator==, readability).
inline bool deep_equal(const Value& a, const Value& b) { return a == b; }

}  // namespace edgstr::json
