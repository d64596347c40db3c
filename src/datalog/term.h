// Datalog terms, atoms, facts, and rules.
//
// EdgStr expresses its dependence analysis declaratively (§III-E): MiniJS
// statements become facts (RW-LOG, ACTUAL, POST-DOM, ...) and the analysis
// rules (STMT-UNMAR, STMT-MAR, STMT-DEP with transitive closure) become
// Datalog rules evaluated bottom-up.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/intern.h"

namespace edgstr::datalog {

/// A ground value: integer or symbol (interned string).
///
/// Symbols are stored as 4-byte interned ids — copying facts during joins
/// copies machine words, not heap strings — but the ordering observable
/// through operator< stays exactly what the std::string representation
/// had: ints before symbols, symbols lexicographic by text. The fact sets
/// the engine derives are therefore byte-identical to the pre-interning
/// ones when printed.
class Value {
 public:
  Value() : data_(std::int64_t{0}) {}
  Value(std::int64_t i) : data_(i) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::string s) : data_(util::intern(s)) {}
  Value(const char* s) : data_(util::intern(s)) {}

  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  const std::string& as_symbol() const {
    return util::symbol_name(std::get<util::Symbol>(data_));
  }

  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator<(const Value& other) const {
    // Matches std::variant<int64,string> ordering: alternative index first.
    if (data_.index() != other.data_.index()) return data_.index() < other.data_.index();
    if (is_int()) return as_int() < other.as_int();
    const util::Symbol a = std::get<util::Symbol>(data_);
    const util::Symbol b = std::get<util::Symbol>(other.data_);
    if (a == b) return false;  // identity shortcut: no text compare
    return *util::symbol_cstr(a) < *util::symbol_cstr(b);
  }

  /// Hash over the alternative and the int or symbol id (not the text).
  std::size_t hash() const {
    const std::uint64_t raw = is_int() ? static_cast<std::uint64_t>(as_int())
                                       : std::uint64_t{std::get<util::Symbol>(data_)};
    std::uint64_t h = (raw * 2 + data_.index()) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  std::string to_string() const {
    return is_int() ? std::to_string(as_int()) : "'" + as_symbol() + "'";
  }

 private:
  std::variant<std::int64_t, util::Symbol> data_;
};

}  // namespace edgstr::datalog

template <>
struct std::hash<edgstr::datalog::Value> {
  std::size_t operator()(const edgstr::datalog::Value& v) const noexcept { return v.hash(); }
};

namespace edgstr::datalog {

/// A term: either a variable (by name) or a ground value.
class Term {
 public:
  /// Variable term, e.g. Term::var("S1").
  static Term var(std::string name);
  /// Constant term.
  static Term val(Value value);
  static Term val(std::int64_t i) { return val(Value(i)); }
  static Term val(std::string s) { return val(Value(std::move(s))); }

  bool is_var() const { return is_var_; }
  const std::string& var_name() const { return name_; }
  const Value& value() const { return value_; }

  std::string to_string() const { return is_var_ ? name_ : value_.to_string(); }

 private:
  bool is_var_ = false;
  std::string name_;
  Value value_;
};

/// A ground tuple for one predicate.
using Fact = std::vector<Value>;

/// predicate(t1, ..., tn), possibly with variables.
struct Atom {
  std::string predicate;
  std::vector<Term> terms;

  std::string to_string() const;
};

/// Inequality side-constraint between two body variables: X != Y.
struct Disequality {
  std::string left;
  std::string right;
};

/// head :- body[0], ..., body[k], diseq constraints.
struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<Disequality> diseq;

  std::string to_string() const;
};

// Convenience builders.
inline Term V(std::string name) { return Term::var(std::move(name)); }
inline Term C(std::int64_t i) { return Term::val(i); }
inline Term C(std::string s) { return Term::val(std::move(s)); }
inline Term C(const char* s) { return Term::val(std::string(s)); }

Atom atom(std::string predicate, std::vector<Term> terms);

}  // namespace edgstr::datalog
