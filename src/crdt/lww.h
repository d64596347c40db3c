// State-based Last-Writer-Wins map.
//
// This is the foundational convergent type: merge is join (max by
// stamp), which is commutative, associative, and idempotent — the property
// suite verifies all three under random interleavings.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crdt/change.h"
#include "json/value.h"

namespace edgstr::crdt {

/// One live (key, value) pair's contribution to a doc's state_hash(): the
/// splitmix64 finaliser over fnv1a(key) and fnv1a(value_repr). A doc's hash
/// is the sum of its live pairs' contributions mod 2^64, so it does not
/// depend on insertion order and updates in O(1) per changed pair.
std::uint64_t entry_hash(std::string_view key, std::string_view value_repr);

/// Keyed LWW entries with tombstoned removal. Values are immutable and
/// shared: an entry put from an op aliases the op's payload (Op::share), so
/// the log and the map hold one copy between them.
class LwwMap {
 public:
  /// Non-deleted value for a key, if any (a copy; see find()).
  std::optional<json::Value> get(const std::string& key) const;
  /// Non-deleted value for a key, or nullptr — without copying it. Valid
  /// until the key is next written.
  const json::Value* find(const std::string& key) const;
  bool contains(const std::string& key) const { return find(key) != nullptr; }

  void put(const std::string& key, json::Value value, Stamp stamp);
  void put(const std::string& key, std::shared_ptr<const json::Value> value, Stamp stamp);
  void remove(const std::string& key, Stamp stamp);

  /// Join: pointwise LWW merge (delete vs write also resolves by stamp).
  void merge(const LwwMap& other);

  /// Live (non-tombstoned) keys.
  std::vector<std::string> keys() const;
  /// Every key ever written, including tombstoned ones — what a restored
  /// replica must re-materialize (tombstones drive local deletions).
  std::vector<std::string> all_keys() const;
  std::size_t live_size() const { return live_; }

  bool operator==(const LwwMap& other) const;

  /// Deterministic serialization of the *observable* state (live keys and
  /// values, no stamps or tombstones) — equal digests iff operator== holds.
  std::string digest() const;

  /// Sum of entry_hash(key, value.dump()) over live entries, kept current on
  /// every write: equal digest() strings always give equal hashes. Each
  /// value's share is hashed straight from the JSON writer
  /// (json::Value::fnv1a), without building its text.
  std::uint64_t state_hash() const { return hash_; }

  json::Value to_json() const;
  static LwwMap from_json(const json::Value& v);

 private:
  struct Entry {
    std::shared_ptr<const json::Value> value;  ///< null for a tombstone
    Stamp stamp;
    bool deleted = false;
    std::uint64_t hash = 0;  ///< entry_hash of a live entry; 0 for a tombstone
  };
  std::map<std::string, Entry> entries_;
  std::uint64_t hash_ = 0;
  std::size_t live_ = 0;

  /// The one writer of entries_: swaps `key`'s entry for `entry` and moves
  /// hash_ and live_ by the difference.
  void assign(const std::string& key, Entry entry);
  static Entry live_entry(const std::string& key, std::shared_ptr<const json::Value> value,
                          Stamp stamp);
};

}  // namespace edgstr::crdt
