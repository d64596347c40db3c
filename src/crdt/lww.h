// State-based Last-Writer-Wins map.
//
// This is the foundational convergent type: merge is join (max by
// stamp), which is commutative, associative, and idempotent — the property
// suite verifies all three under random interleavings.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crdt/change.h"
#include "json/value.h"

namespace edgstr::crdt {

/// Keyed LWW entries with tombstoned removal.
class LwwMap {
 public:
  /// Non-deleted value for a key, if any.
  std::optional<json::Value> get(const std::string& key) const;
  bool contains(const std::string& key) const { return get(key).has_value(); }

  void put(const std::string& key, json::Value value, Stamp stamp);
  void remove(const std::string& key, Stamp stamp);

  /// Join: pointwise LWW merge (delete vs write also resolves by stamp).
  void merge(const LwwMap& other);

  /// Live (non-tombstoned) keys.
  std::vector<std::string> keys() const;
  /// Every key ever written, including tombstoned ones — what a restored
  /// replica must re-materialize (tombstones drive local deletions).
  std::vector<std::string> all_keys() const;
  std::size_t live_size() const { return keys().size(); }

  bool operator==(const LwwMap& other) const;

  /// Deterministic serialization of the *observable* state (live keys and
  /// values, no stamps or tombstones) — equal digests iff operator== holds.
  std::string digest() const;

  json::Value to_json() const;
  static LwwMap from_json(const json::Value& v);

 private:
  struct Entry {
    json::Value value;
    Stamp stamp;
    bool deleted = false;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace edgstr::crdt
