// NaN-boxed value representation for the MiniJS VM operand stack.
//
// The tree-walker's JsValue is a 9-way std::variant — 24 bytes, with a
// discriminant branch on every access. The VM keeps its operand stack in
// 8-byte VmValues instead: doubles are stored as themselves, and every
// non-double payload hides inside the 2^51 NaN bit patterns hardware never
// produces (quiet-NaN space with the sign bit picking out pointers).
//
//   number:   any double whose bits don't have all kQnan bits set
//             (real NaNs are canonicalized to 0x7ff8... on construction)
//   null:     kQnan | 1        false: kQnan | 2        true: kQnan | 3
//   box:      kSign | kQnan | <48-bit VmBox pointer>
//
// Boxes carry the full JsValue for strings/arrays/objects/functions/blobs
// and are refcounted through a thread-local freelist pool, so the hot
// number/bool/null paths never allocate and a box costs one pool pop.
// Conversion to/from JsValue happens only at the VM's boundaries: constant
// loads, environment slots, hooks, and calls into native/tree-walk code.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "minijs/value.h"

namespace edgstr::minijs {

/// Refcounted heavyweight payload behind a NaN-boxed pointer.
struct VmBox {
  std::uint32_t refs = 1;
  JsValue value;
};

/// Thread-local VmBox recycler: boxes churn once per non-numeric stack
/// value, so reuse matters. Released boxes drop their JsValue (releasing
/// shared_ptr references promptly) before entering the freelist.
class VmBoxPool {
 public:
  static VmBoxPool& instance() {
    thread_local VmBoxPool pool;
    return pool;
  }

  VmBox* acquire(JsValue value) {
    VmBox* box;
    if (free_.empty()) {
      box = new VmBox;
    } else {
      box = free_.back();
      free_.pop_back();
    }
    box->refs = 1;
    box->value = std::move(value);
    return box;
  }

  void release(VmBox* box) {
    box->value = JsValue();
    if (free_.size() < kMaxFree) {
      free_.push_back(box);
    } else {
      delete box;
    }
  }

  ~VmBoxPool() {
    for (VmBox* box : free_) delete box;
  }

 private:
  static constexpr std::size_t kMaxFree = 4096;
  std::vector<VmBox*> free_;
};

class VmValue {
 public:
  VmValue() : bits_(kNullBits) {}
  VmValue(const VmValue& other) : bits_(other.bits_) { retain(); }
  VmValue(VmValue&& other) noexcept : bits_(other.bits_) { other.bits_ = kNullBits; }
  VmValue& operator=(const VmValue& other) {
    if (this != &other) {
      release();
      bits_ = other.bits_;
      retain();
    }
    return *this;
  }
  VmValue& operator=(VmValue&& other) noexcept {
    if (this != &other) {
      release();
      bits_ = other.bits_;
      other.bits_ = kNullBits;
    }
    return *this;
  }
  ~VmValue() { release(); }

  static VmValue number(double d) {
    if (std::isnan(d)) {
      VmValue v;
      v.bits_ = kCanonicalNan;
      return v;
    }
    VmValue v;
    std::memcpy(&v.bits_, &d, sizeof(d));
    return v;
  }
  static VmValue null() { return VmValue(); }
  static VmValue boolean(bool b) {
    VmValue v;
    v.bits_ = b ? kTrueBits : kFalseBits;
    return v;
  }
  /// Wraps a heavyweight JsValue in a pooled box.
  static VmValue box(JsValue value) {
    VmValue v;
    const auto ptr = reinterpret_cast<std::uintptr_t>(VmBoxPool::instance().acquire(std::move(value)));
    v.bits_ = kSign | kQnan | static_cast<std::uint64_t>(ptr);
    return v;
  }

  static VmValue from_js(const JsValue& value) {
    switch (value.type()) {
      case JsValue::Type::kNull: return null();
      case JsValue::Type::kBool: return boolean(value.as_bool());
      case JsValue::Type::kNumber: return number(value.as_number());
      default: return box(value);
    }
  }
  static VmValue from_js(JsValue&& value) {
    switch (value.type()) {
      case JsValue::Type::kNull: return null();
      case JsValue::Type::kBool: return boolean(value.as_bool());
      case JsValue::Type::kNumber: return number(value.as_number());
      default: return box(std::move(value));
    }
  }

  JsValue to_js() const {
    if (is_number()) return JsValue(as_number());
    if (bits_ == kNullBits) return JsValue();
    if (bits_ == kTrueBits) return JsValue(true);
    if (bits_ == kFalseBits) return JsValue(false);
    return unbox()->value;
  }

  bool is_number() const { return (bits_ & kQnan) != kQnan; }
  bool is_null() const { return bits_ == kNullBits; }
  bool is_bool() const { return bits_ == kTrueBits || bits_ == kFalseBits; }
  bool is_box() const { return (bits_ & (kSign | kQnan)) == (kSign | kQnan); }

  double as_number() const {
    double d;
    std::memcpy(&d, &bits_, sizeof(d));
    return d;
  }
  /// The boxed JsValue; only valid when is_box().
  const JsValue& boxed() const { return unbox()->value; }

  /// JavaScript truthiness, matching JsValue::truthy().
  bool truthy() const {
    if (is_number()) {
      const double d = as_number();
      return d != 0.0 && !std::isnan(d);
    }
    if (bits_ == kNullBits || bits_ == kFalseBits) return false;
    if (bits_ == kTrueBits) return true;
    return unbox()->value.truthy();
  }

 private:
  static constexpr std::uint64_t kQnan = 0x7ffc000000000000ull;
  static constexpr std::uint64_t kSign = 0x8000000000000000ull;
  static constexpr std::uint64_t kCanonicalNan = 0x7ff8000000000000ull;
  static constexpr std::uint64_t kNullBits = kQnan | 1;
  static constexpr std::uint64_t kFalseBits = kQnan | 2;
  static constexpr std::uint64_t kTrueBits = kQnan | 3;
  static constexpr std::uint64_t kPtrMask = 0x0000ffffffffffffull;

  VmBox* unbox() const { return reinterpret_cast<VmBox*>(bits_ & kPtrMask); }

  void retain() {
    if (is_box()) ++unbox()->refs;
  }
  void release() {
    if (is_box()) {
      VmBox* box = unbox();
      if (--box->refs == 0) VmBoxPool::instance().release(box);
    }
  }

  std::uint64_t bits_;
};

}  // namespace edgstr::minijs
