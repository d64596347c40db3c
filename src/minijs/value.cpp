#include "minijs/value.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace edgstr::minijs {

// ------------------------------------------------------------- JsObject --

JsValue JsObject::get(const std::string& key) const { return get(util::intern(key)); }

JsValue JsObject::get(util::Symbol key) const {
  const int idx = index_of(key);
  return idx < 0 ? JsValue() : entries_[static_cast<std::size_t>(idx)].second;
}

void JsObject::set(const std::string& key, JsValue value) {
  const util::Symbol sym = util::intern(key);
  const int idx = index_of(sym);
  if (idx >= 0) {
    entries_[static_cast<std::size_t>(idx)].second = std::move(value);
    return;
  }
  entries_.emplace_back(key, std::move(value));
  syms_.push_back(sym);
}

void JsObject::set(util::Symbol key, JsValue value) {
  const int idx = index_of(key);
  if (idx >= 0) {
    entries_[static_cast<std::size_t>(idx)].second = std::move(value);
    return;
  }
  entries_.emplace_back(util::symbol_name(key), std::move(value));
  syms_.push_back(key);
}

void JsObject::reserve(std::size_t n) {
  entries_.reserve(n);
  syms_.reserve(n);
}

bool JsObject::erase(const std::string& key) {
  const int idx = index_of(util::intern(key));
  if (idx < 0) return false;
  entries_.erase(entries_.begin() + idx);
  syms_.erase(syms_.begin() + idx);
  return true;
}

std::vector<std::string> JsObject::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : entries_) out.push_back(k);
  return out;
}

// -------------------------------------------------------------- JsValue --

JsValue JsValue::new_array(JsArray items) {
  return JsValue(std::make_shared<JsArray>(std::move(items)));
}

JsValue JsValue::new_object() { return JsValue(std::make_shared<JsObject>()); }

bool JsValue::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  throw std::logic_error("JsValue: not a bool");
}

void JsValue::not_a(const char* kind) const {
  throw std::logic_error(std::string("JsValue: not a ") + kind + " (got " + to_display() + ")");
}

const std::shared_ptr<Closure>& JsValue::as_closure() const {
  if (const auto* c = std::get_if<std::shared_ptr<Closure>>(&data_)) return *c;
  throw std::logic_error("JsValue: not a function");
}

const std::shared_ptr<NativeFunction>& JsValue::as_native() const {
  if (const auto* n = std::get_if<std::shared_ptr<NativeFunction>>(&data_)) return *n;
  throw std::logic_error("JsValue: not a native function");
}

Blob JsValue::as_blob() const {
  if (const Blob* b = std::get_if<Blob>(&data_)) return *b;
  throw std::logic_error("JsValue: not a blob");
}

bool JsValue::truthy() const {
  switch (type()) {
    case Type::kNull: return false;
    case Type::kBool: return std::get<bool>(data_);
    case Type::kNumber: {
      const double d = std::get<double>(data_);
      return d != 0.0 && !std::isnan(d);
    }
    case Type::kString: return std::get<util::TextPtr>(data_)->size() != 0;
    default: return true;
  }
}

bool JsValue::equals(const JsValue& other) const {
  if (type() != other.type()) {
    // Numeric/bool coercions are not applied: subject code compares
    // like-typed values.
    return false;
  }
  switch (type()) {
    case Type::kNull: return true;
    case Type::kBool: return std::get<bool>(data_) == std::get<bool>(other.data_);
    case Type::kNumber: return std::get<double>(data_) == std::get<double>(other.data_);
    case Type::kString: {
      const util::TextPtr& a = std::get<util::TextPtr>(data_);
      const util::TextPtr& b = std::get<util::TextPtr>(other.data_);
      return a == b || a->str() == b->str();
    }
    case Type::kArray: {
      const auto& a = *std::get<std::shared_ptr<JsArray>>(data_);
      const auto& b = *std::get<std::shared_ptr<JsArray>>(other.data_);
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!a[i].equals(b[i])) return false;
      }
      return true;
    }
    case Type::kObject: {
      const auto& a = *std::get<std::shared_ptr<JsObject>>(data_);
      const auto& b = *std::get<std::shared_ptr<JsObject>>(other.data_);
      if (a.size() != b.size()) return false;
      for (const auto& [k, v] : a.entries()) {
        if (!b.has(k) || !b.get(k).equals(v)) return false;
      }
      return true;
    }
    case Type::kClosure:
      return std::get<std::shared_ptr<Closure>>(data_) ==
             std::get<std::shared_ptr<Closure>>(other.data_);
    case Type::kNative:
      return std::get<std::shared_ptr<NativeFunction>>(data_) ==
             std::get<std::shared_ptr<NativeFunction>>(other.data_);
    case Type::kBlob: {
      const Blob a = std::get<Blob>(data_);
      const Blob b = std::get<Blob>(other.data_);
      return a.size == b.size && a.fingerprint == b.fingerprint;
    }
  }
  return false;
}

JsValue JsValue::deep_copy() const {
  switch (type()) {
    case Type::kArray: {
      auto copy = std::make_shared<JsArray>();
      copy->reserve(as_array()->size());
      for (const JsValue& item : *as_array()) copy->push_back(item.deep_copy());
      return JsValue(std::move(copy));
    }
    case Type::kObject: {
      auto copy = std::make_shared<JsObject>();
      for (const auto& [k, v] : as_object()->entries()) copy->set(k, v.deep_copy());
      return JsValue(std::move(copy));
    }
    default:
      return *this;  // immutable or identity-shared
  }
}

std::string JsValue::to_display() const {
  switch (type()) {
    case Type::kNull: return "null";
    case Type::kBool: return std::get<bool>(data_) ? "true" : "false";
    case Type::kNumber: {
      const double d = std::get<double>(data_);
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    case Type::kString: return std::get<util::TextPtr>(data_)->str();
    case Type::kArray:
    case Type::kObject: return to_json().dump();
    case Type::kClosure: return "[function " + std::get<std::shared_ptr<Closure>>(data_)->name + "]";
    case Type::kNative: return "[native " + std::get<std::shared_ptr<NativeFunction>>(data_)->name + "]";
    case Type::kBlob: {
      const Blob b = std::get<Blob>(data_);
      return "[blob " + std::to_string(b.size) + "B]";
    }
  }
  return "?";
}

json::Value JsValue::to_json() const {
  switch (type()) {
    case Type::kNull: return json::Value(nullptr);
    case Type::kBool: return json::Value(std::get<bool>(data_));
    case Type::kNumber: return json::Value(std::get<double>(data_));
    case Type::kString: return json::Value(std::get<util::TextPtr>(data_)->str());
    case Type::kArray: {
      json::Array arr;
      arr.reserve(as_array()->size());
      for (const JsValue& item : *as_array()) arr.push_back(item.to_json());
      return json::Value(std::move(arr));
    }
    case Type::kObject: {
      // JsObject keys are unique, so entries append without set()'s scan.
      json::Object obj;
      obj.reserve(as_object()->size());
      for (const auto& [k, v] : as_object()->entries()) obj.append(k, v.to_json());
      return json::Value(std::move(obj));
    }
    case Type::kBlob: {
      const Blob b = std::get<Blob>(data_);
      return json::Value::object({{"__blob__", static_cast<double>(b.size)},
                                  {"fp", static_cast<double>(b.fingerprint)}});
    }
    case Type::kClosure:
    case Type::kNative:
      return json::Value(nullptr);
  }
  return json::Value(nullptr);
}

JsValue JsValue::from_json(const json::Value& v) {
  switch (v.type()) {
    case json::Value::Type::kNull: return JsValue();
    case json::Value::Type::kBool: return JsValue(v.as_bool());
    case json::Value::Type::kNumber: return JsValue(v.as_number());
    case json::Value::Type::kString: return JsValue(v.as_string());
    case json::Value::Type::kArray: {
      JsArray items;
      items.reserve(v.as_array().size());
      for (const json::Value& item : v.as_array()) items.push_back(from_json(item));
      return new_array(std::move(items));
    }
    case json::Value::Type::kObject: {
      if (const json::Value* size = v.find("__blob__")) {
        Blob blob;
        blob.size = static_cast<std::uint64_t>(size->as_number());
        if (const json::Value* fp = v.find("fp")) {
          blob.fingerprint = static_cast<std::uint64_t>(fp->as_number());
        }
        return JsValue(blob);
      }
      auto obj = std::make_shared<JsObject>();
      for (const auto& [k, value] : v.as_object()) obj->set(k, from_json(value));
      return JsValue(std::move(obj));
    }
  }
  return JsValue();
}

std::uint64_t JsValue::digest() const {
  // Structural hash: every tag, size and scalar is one util::hash_word
  // step. Type tags keep e.g. "1" and 1 apart, and key lengths keep
  // {"ab":"c"} and {"a":"bc"} apart; functions collapse to the null tag
  // because to_json renders them as null and the digest must agree with
  // the JSON view of a value.
  using util::hash_word;
  struct Walker {
    static std::uint64_t walk(const JsValue& v, std::uint64_t h) {
      switch (v.type()) {
        case Type::kNull:
        case Type::kClosure:
        case Type::kNative:
          return hash_word(h, 1);
        case Type::kBool:
          return hash_word(hash_word(h, 2), v.as_bool() ? 1 : 0);
        case Type::kNumber: {
          std::uint64_t bits = 0;
          const double d = v.as_number();
          std::memcpy(&bits, &d, sizeof(bits));
          return hash_word(hash_word(h, 3), bits);
        }
        case Type::kString: {
          const util::Text& text = *v.as_text();
          return hash_word(hash_word(hash_word(h, 4), text.hash()), text.size());
        }
        case Type::kArray: {
          h = hash_word(h, 5);
          const JsArray& arr = *v.as_array();
          h = hash_word(h, arr.size());
          for (const JsValue& item : arr) h = walk(item, h);
          return h;
        }
        case Type::kObject: {
          h = hash_word(h, 6);
          const JsObject& obj = *v.as_object();
          h = hash_word(h, obj.size());
          for (const auto& [k, val] : obj.entries()) {
            h = hash_word(hash_word(h, util::content_hash(k)), k.size());
            h = walk(val, h);
          }
          return h;
        }
        case Type::kBlob: {
          const Blob b = v.as_blob();
          return hash_word(hash_word(hash_word(h, 7), b.size), b.fingerprint);
        }
      }
      return h;
    }
    using Type = JsValue::Type;
  };
  return Walker::walk(*this, util::kHashSeed);
}

// ---------------------------------------------------------- Environment --

void Environment::init_named(std::shared_ptr<Environment> parent) {
  parent_ = std::move(parent);
}

void Environment::init_frame(ScopeInfoPtr scope, std::shared_ptr<Environment> parent) {
  parent_ = std::move(parent);
  scope_ = std::move(scope);
  slots_.resize(scope_->slots.size());
  bound_.assign(scope_->slots.size(), 0);
}

void Environment::reset() {
  named_.clear();
  scope_.reset();
  slots_.clear();   // releases held values; keeps capacity for reuse
  bound_.clear();
  parent_.reset();
  ++version_;
}

void Environment::define(util::Symbol sym, JsValue value) {
  if (scope_) {
    const int idx = scope_->index_of(sym);
    if (idx >= 0) {
      bind_slot(static_cast<std::size_t>(idx), std::move(value));
      return;
    }
  }
  auto it = named_.find(sym);
  if (it != named_.end()) {
    it->second = std::move(value);  // redefinition: binding set unchanged
    return;
  }
  ++version_;
  named_.emplace(sym, std::move(value));
}

bool Environment::has_local(const std::string& name) const {
  return const_cast<Environment*>(this)->find_local(util::intern(name)) != nullptr;
}

const JsValue* Environment::find(util::Symbol sym) const {
  for (const Environment* e = this; e; e = e->parent_.get()) {
    const JsValue* v = const_cast<Environment*>(e)->find_local(sym);
    if (v) return v;
  }
  return nullptr;
}

JsValue* Environment::find_mutable(util::Symbol sym) {
  for (Environment* e = this; e; e = e->parent_.get()) {
    if (JsValue* v = e->find_local(sym)) return v;
  }
  return nullptr;
}

JsValue* Environment::find_local(util::Symbol sym) {
  if (scope_) {
    const int idx = scope_->index_of(sym);
    if (idx >= 0 && bound_[static_cast<std::size_t>(idx)]) {
      return &slots_[static_cast<std::size_t>(idx)];
    }
    if (named_.empty()) return nullptr;
  }
  auto it = named_.find(sym);
  return it == named_.end() ? nullptr : &it->second;
}

bool Environment::erase_local(util::Symbol sym) {
  if (scope_) {
    const int idx = scope_->index_of(sym);
    if (idx >= 0 && bound_[static_cast<std::size_t>(idx)]) {
      slots_[static_cast<std::size_t>(idx)] = JsValue();
      bound_[static_cast<std::size_t>(idx)] = 0;
      ++version_;
      return true;
    }
  }
  if (named_.erase(sym) > 0) {
    ++version_;
    return true;
  }
  return false;
}

const JsValue& Environment::get(const std::string& name) const {
  const JsValue* v = find(util::intern(name));
  if (!v) throw std::out_of_range("undefined variable: " + name);
  return *v;
}

void Environment::set(const std::string& name, JsValue value) {
  JsValue* v = find_mutable(util::intern(name));
  if (!v) throw std::out_of_range("assignment to undefined variable: " + name);
  *v = std::move(value);
}

Environment& Environment::global() {
  Environment* env = this;
  while (env->parent_) env = env->parent_.get();
  return *env;
}

// -------------------------------------------------------------- EnvHeap --

namespace {
/// Free environments kept for reuse; beyond this they are freed.
constexpr std::size_t kFreeListCap = 256;
}  // namespace

std::shared_ptr<Environment> EnvHeap::acquire() {
  Environment* env;
  if (!free_.empty()) {
    env = free_.back();
    free_.pop_back();
  } else {
    auto fresh = std::make_unique<Environment>();
    fresh->heap_ = this;
    fresh->heap_slot_ = owned_.size();
    owned_.push_back(fresh.get());
    env = fresh.release();
  }
  return std::shared_ptr<Environment>(env, Release{});
}

void EnvHeap::Release::operator()(Environment* env) const {
  if (env->heap_) {
    env->heap_->release(env);
  } else {
    delete env;  // outlived its heap (see the ownership rule)
  }
}

void EnvHeap::release(Environment* env) {
  if (tearing_down_) {
    env->heap_ = nullptr;  // unreferenced: the teardown walk frees it
    return;
  }
  if (free_.size() < kFreeListCap) {
    env->reset();  // may release further environments (re-enters here)
    free_.push_back(env);
    return;
  }
  Environment* const last = owned_.back();
  owned_[env->heap_slot_] = last;
  last->heap_slot_ = env->heap_slot_;
  owned_.pop_back();
  delete env;
}

EnvHeap::~EnvHeap() {
  // Under tearing_down_, release() only clears heap_, so resetting one
  // environment can drop the last reference to another without changing
  // owned_ under the walk. Afterwards heap_ is null exactly on the
  // unreferenced environments.
  tearing_down_ = true;
  for (Environment* env : free_) env->heap_ = nullptr;
  for (Environment* env : owned_) env->reset();
  for (Environment* env : owned_) {
    if (env->heap_) {
      env->heap_ = nullptr;  // still referenced: Release frees it later
    } else {
      delete env;
    }
  }
}

}  // namespace edgstr::minijs
