// MiniJS runtime values and lexical environments.
//
// Values mirror JavaScript's: null, boolean, number, string, array, object,
// function (closure or native). One addition: Blob, an *opaque payload*
// with an explicit byte size and content fingerprint. Blobs stand in for
// the camera images / MNIST digits the subject apps ship over HTTP, so the
// simulator can account for megabytes of traffic without storing them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "json/value.h"
#include "minijs/ast.h"
#include "util/intern.h"
#include "util/text.h"

namespace edgstr::minijs {

class JsValue;
class Interpreter;
class Chunk;

using JsArray = std::vector<JsValue>;

/// Order-preserving property map (JavaScript object semantics). Keys are
/// interned alongside the entries, so lookups by a pre-interned property
/// symbol (the hot interpreter path) scan 32-bit ids, not strings.
class JsObject {
 public:
  bool has(const std::string& key) const { return index_of(util::intern(key)) >= 0; }
  bool has(util::Symbol key) const { return index_of(key) >= 0; }
  /// Returns null for missing keys (JS `undefined` behaviour).
  JsValue get(const std::string& key) const;
  JsValue get(util::Symbol key) const;
  void set(const std::string& key, JsValue value);
  void set(util::Symbol key, JsValue value);
  bool erase(const std::string& key);
  std::vector<std::string> keys() const;
  std::size_t size() const { return entries_.size(); }
  void reserve(std::size_t n);

  const std::vector<std::pair<std::string, JsValue>>& entries() const { return entries_; }

  // Positional access for the VM's monomorphic inline caches: a property
  // cache remembers the entry index a symbol last resolved to and
  // revalidates it with sym_at — one 32-bit compare instead of a scan.
  int find_index(util::Symbol key) const { return index_of(key); }
  bool sym_at(std::size_t i, util::Symbol key) const {
    return i < syms_.size() && syms_[i] == key;
  }
  const JsValue& value_at(std::size_t i) const;  // defined below JsValue
  JsValue& value_at(std::size_t i);

 private:
  int index_of(util::Symbol key) const {
    for (std::size_t i = 0; i < syms_.size(); ++i) {
      if (syms_[i] == key) return static_cast<int>(i);
    }
    return -1;
  }

  std::vector<std::pair<std::string, JsValue>> entries_;
  std::vector<util::Symbol> syms_;  ///< aligned with entries_
};

class Environment;
class EnvHeap;

/// User-defined function value.
struct Closure {
  std::string name;  ///< for diagnostics and invoke hooks; may be empty
  util::Symbol name_sym = util::kNoSymbol;
  std::vector<std::string> params;
  StmtPtr body;  ///< Block
  std::shared_ptr<Environment> env;
  ScopeInfoPtr scope;  ///< call-frame layout; null -> named slow path
  std::shared_ptr<const Chunk> chunk;  ///< compiled bytecode; null -> tree-walk
};

/// Host-provided function.
struct NativeFunction {
  using Fn = std::function<JsValue(Interpreter&, std::vector<JsValue>&)>;

  NativeFunction() = default;
  NativeFunction(std::string n, Fn f)
      : name(std::move(n)), name_sym(util::intern(name)), fn(std::move(f)) {}

  std::string name;
  util::Symbol name_sym = util::kNoSymbol;  ///< interned once at registration
  Fn fn;
};

/// Opaque payload: size + fingerprint, no contents.
struct Blob {
  std::uint64_t size = 0;
  std::uint64_t fingerprint = 0;
};

/// A MiniJS value. Strings are shared and immutable: a string value holds
/// a util::Text body by reference, so copying it (an identifier read, an
/// argument, a return) is a refcount bump, and its hash is computed at most
/// once per body. fs.readFile returns the VFS's body itself. Arrays and
/// objects are shared by reference, as in JavaScript.
class JsValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject, kClosure, kNative, kBlob };

  JsValue() : data_(nullptr) {}
  JsValue(std::nullptr_t) : data_(nullptr) {}
  JsValue(bool b) : data_(b) {}
  JsValue(double d) : data_(d) {}
  JsValue(int i) : data_(static_cast<double>(i)) {}
  JsValue(const char* s) : data_(util::make_text(s)) {}
  JsValue(std::string s) : data_(util::make_text(std::move(s))) {}
  /// Shares `text` (non-null) as this string's body.
  JsValue(util::TextPtr text) : data_(std::move(text)) {}
  JsValue(std::shared_ptr<JsArray> a) : data_(std::move(a)) {}
  JsValue(std::shared_ptr<JsObject> o) : data_(std::move(o)) {}
  JsValue(std::shared_ptr<Closure> c) : data_(std::move(c)) {}
  JsValue(std::shared_ptr<NativeFunction> n) : data_(std::move(n)) {}
  JsValue(Blob b) : data_(b) {}

  static JsValue new_array(JsArray items = {});
  static JsValue new_object();

  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }
  bool is_callable() const { return type() == Type::kClosure || type() == Type::kNative; }
  bool is_blob() const { return type() == Type::kBlob; }

  bool as_bool() const;
  // The four hottest accessors are inline: the VM calls them per property
  // access / arithmetic op, and the out-of-line call cost shows up in
  // profiles. The cold throw path stays in value.cpp.
  double as_number() const {
    if (const double* d = std::get_if<double>(&data_)) return *d;
    not_a("number");
  }
  const std::string& as_string() const {
    if (const util::TextPtr* t = std::get_if<util::TextPtr>(&data_)) return (*t)->str();
    not_a("string");
  }
  /// The string's shared body.
  const util::TextPtr& as_text() const {
    if (const util::TextPtr* t = std::get_if<util::TextPtr>(&data_)) return *t;
    not_a("string");
  }
  const std::shared_ptr<JsArray>& as_array() const {
    if (const auto* a = std::get_if<std::shared_ptr<JsArray>>(&data_)) return *a;
    not_a("array");
  }
  const std::shared_ptr<JsObject>& as_object() const {
    if (const auto* o = std::get_if<std::shared_ptr<JsObject>>(&data_)) return *o;
    not_a("object");
  }
  const std::shared_ptr<Closure>& as_closure() const;
  const std::shared_ptr<NativeFunction>& as_native() const;
  Blob as_blob() const;

  /// In-place number write for the VM's store fast path: true when this
  /// value already holds a number, so no variant destroy/reconstruct runs.
  bool set_number(double v) {
    if (double* d = std::get_if<double>(&data_)) {
      *d = v;
      return true;
    }
    return false;
  }

  /// JavaScript truthiness.
  bool truthy() const;

  /// Deep structural equality (strings and arrays/objects by value,
  /// functions by identity, blobs by size+fingerprint). Two strings that
  /// share a body are equal without a byte compare.
  bool equals(const JsValue& other) const;

  /// Deep copy: arrays/objects are cloned recursively; functions and blobs
  /// are shared. This is the "deeply copies all global variables" operation
  /// of §III-C.
  JsValue deep_copy() const;

  /// Display string (console.log formatting / string concatenation).
  std::string to_display() const;

  /// Conversion to JSON for marshaling over HTTP and snapshotting. Blobs
  /// serialize as {"__blob__": size, "fp": fingerprint}; functions as null.
  json::Value to_json() const;
  static JsValue from_json(const json::Value& v);

  /// Structural content hash. Values whose to_json() texts are equal
  /// digest equally, except that NaN and ±Infinity (which render as null)
  /// keep their number bits. Functions hash as null and blobs by
  /// size+fingerprint. A string mixes its body's content hash and its
  /// size, so a string costs O(1) after its body's first hash, however
  /// long it is. The values are stable only within one process: the RW
  /// log, dependence analysis and the copy-on-write snapshot dirty check
  /// compare them for equality and never store them.
  std::uint64_t digest() const;

 private:
  [[noreturn]] void not_a(const char* kind) const;

  std::variant<std::nullptr_t, bool, double, util::TextPtr, std::shared_ptr<JsArray>,
               std::shared_ptr<JsObject>, std::shared_ptr<Closure>,
               std::shared_ptr<NativeFunction>, Blob>
      data_;
};

inline const JsValue& JsObject::value_at(std::size_t i) const { return entries_[i].second; }
inline JsValue& JsObject::value_at(std::size_t i) { return entries_[i].second; }

/// Lexical scope chain. Two storage modes:
///
///  * named (the default): a symbol-keyed hash map — used for the builtins
///    and globals scopes, and for every scope when a program runs without
///    the resolver (the slow path).
///  * frame: a flat JsValue vector laid out by a resolver ScopeInfo. Slots
///    start *unbound*; a declaration binds its slot. Unbound slots are
///    invisible to chain lookups, which makes the frame path observably
///    identical to the named path (shadowing, not-yet-declared reads, ...).
///
/// Every environment is allocated by its interpreter's EnvHeap, which
/// recycles frames and frees them all when the interpreter goes; `reset()`
/// returns an environment to its blank state.
class Environment {
 public:
  Environment() = default;

  /// (Re)initializes as a named scope (also on reuse from the free list).
  void init_named(std::shared_ptr<Environment> parent);
  /// (Re)initializes as a slot frame for `scope` (also on reuse).
  void init_frame(ScopeInfoPtr scope, std::shared_ptr<Environment> parent);
  /// Clears all bindings and drops the parent chain reference.
  void reset();

  bool is_frame() const { return scope_ != nullptr; }
  const ScopeInfoPtr& scope() const { return scope_; }

  /// Declares a binding in *this* scope (shadows outer bindings). On a
  /// frame, the resolver guarantees a slot exists; a stray dynamic define
  /// lands in the overflow map and still behaves correctly.
  void define(const std::string& name, JsValue value) { define(util::intern(name), std::move(value)); }
  void define(util::Symbol sym, JsValue value);
  /// True if bound anywhere in the chain.
  bool has(const std::string& name) const { return find(util::intern(name)) != nullptr; }
  /// True if bound in this scope directly.
  bool has_local(const std::string& name) const;
  /// Reads a binding; throws std::out_of_range if unbound.
  const JsValue& get(const std::string& name) const;
  /// Writes the nearest binding; throws std::out_of_range if unbound.
  void set(const std::string& name, JsValue value);

  /// Nearest binding in the chain; nullptr when unbound. Unbound frame
  /// slots are skipped, exactly like a missing map key.
  const JsValue* find(util::Symbol sym) const;
  JsValue* find_mutable(util::Symbol sym);
  /// Binding in *this* scope only; nullptr when absent.
  JsValue* find_local(util::Symbol sym);

  // Direct slot access for resolved identifiers.
  JsValue& slot(std::size_t i) { return slots_[i]; }
  const JsValue& slot(std::size_t i) const { return slots_[i]; }
  bool slot_bound(std::size_t i) const { return bound_[i] != 0; }
  void bind_slot(std::size_t i, JsValue value) {
    version_ += bound_[i] == 0;
    slots_[i] = std::move(value);
    bound_[i] = 1;
  }

  /// Bumped whenever the *set* of bindings visible in this scope changes
  /// (new define, slot first bound, erase, reset). In-place value writes
  /// keep the version, so the VM's global-binding caches — which hold raw
  /// pointers into the named map — stay valid exactly as long as the
  /// version matches (unordered_map nodes are address-stable).
  std::uint64_t version() const { return version_; }

  Environment* parent() const { return parent_.get(); }

  /// The root (global) scope of this chain.
  Environment& global();

  /// Visits every binding of *this* scope as (symbol, value). Iteration
  /// order is unspecified; callers sort by name where determinism matters.
  template <typename Fn>
  void each_local(Fn&& fn) const {
    for (const auto& [sym, value] : named_) fn(sym, value);
    if (scope_) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (bound_[i]) fn(scope_->slots[i], slots_[i]);
      }
    }
  }
  /// Removes a binding from *this* scope; false if absent.
  bool erase_local(util::Symbol sym);

 private:
  friend class EnvHeap;

  std::unordered_map<util::Symbol, JsValue> named_;
  ScopeInfoPtr scope_;                 ///< null -> named mode
  std::vector<JsValue> slots_;         ///< aligned with scope_->slots
  std::vector<unsigned char> bound_;   ///< slot occupancy
  std::shared_ptr<Environment> parent_;
  std::uint64_t version_ = 0;          ///< binding-set generation (see version())
  EnvHeap* heap_ = nullptr;  ///< owning heap; null once the heap no longer manages it
  std::size_t heap_slot_ = 0;  ///< index in the heap's registry
};

/// An interpreter's environment heap. It allocates every Environment the
/// interpreter creates (builtins, globals, named scopes, tree-walker frames
/// and the VM's scope chain) and keeps a registry of them.
///
///  * Recycling: an environment goes back to the free list when its last
///    reference drops, so serving a request allocates nothing new and
///    live() does not grow per request.
///  * Teardown: a closure holds its defining environment, which may hold
///    the closure (a `function` declaration), so reference counting alone
///    never frees them. The heap's destructor resets every environment it
///    allocated, which drops every binding and parent link and with them
///    every closure, then frees the memory.
///
/// Ownership rule: no closure or environment may outlive its interpreter.
/// Should one still be referenced at teardown anyway, it is left allocated
/// (blank) and freed when that last reference drops.
class EnvHeap {
 public:
  EnvHeap() = default;
  EnvHeap(const EnvHeap&) = delete;
  EnvHeap& operator=(const EnvHeap&) = delete;
  ~EnvHeap();

  /// A blank environment, taken from the free list when one is there.
  std::shared_ptr<Environment> acquire();

  /// Environments handed out whose last reference has not dropped.
  std::size_t live() const { return owned_.size() - free_.size(); }

 private:
  struct Release {
    void operator()(Environment* env) const;
  };
  void release(Environment* env);

  std::vector<Environment*> owned_;  ///< everything allocated and not yet freed
  std::vector<Environment*> free_;   ///< blank and unreferenced, reused by acquire()
  bool tearing_down_ = false;
};

}  // namespace edgstr::minijs
