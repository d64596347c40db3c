#include "crdt/lww.h"

#include "util/strings.h"

namespace edgstr::crdt {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t combine(std::uint64_t key_hash, std::uint64_t value_hash) {
  return mix64(key_hash * 0x9e3779b97f4a7c15ULL + value_hash);
}

}  // namespace

std::uint64_t entry_hash(std::string_view key, std::string_view value_repr) {
  return combine(util::fnv1a(key), util::fnv1a(value_repr));
}

LwwMap::Entry LwwMap::live_entry(const std::string& key,
                                 std::shared_ptr<const json::Value> value, Stamp stamp) {
  // == entry_hash(key, value->dump()), without the dump.
  const std::uint64_t hash = combine(util::fnv1a(key), value->fnv1a());
  return Entry{std::move(value), std::move(stamp), false, hash};
}

void LwwMap::assign(const std::string& key, Entry entry) {
  auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted && !it->second.deleted) {
    hash_ -= it->second.hash;
    --live_;
  }
  if (!entry.deleted) {
    hash_ += entry.hash;
    ++live_;
  }
  it->second = std::move(entry);
}

std::optional<json::Value> LwwMap::get(const std::string& key) const {
  const json::Value* value = find(key);
  if (!value) return std::nullopt;
  return *value;
}

const json::Value* LwwMap::find(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.deleted) return nullptr;
  return it->second.value.get();
}

void LwwMap::put(const std::string& key, json::Value value, Stamp stamp) {
  put(key, std::make_shared<const json::Value>(std::move(value)), std::move(stamp));
}

void LwwMap::put(const std::string& key, std::shared_ptr<const json::Value> value,
                 Stamp stamp) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.stamp < stamp) {
    assign(key, live_entry(key, std::move(value), std::move(stamp)));
  }
}

void LwwMap::remove(const std::string& key, Stamp stamp) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.stamp < stamp) {
    assign(key, Entry{nullptr, stamp, true});
  }
}

void LwwMap::merge(const LwwMap& other) {
  for (const auto& [key, entry] : other.entries_) {
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.stamp < entry.stamp) {
      assign(key, entry);
    }
  }
}

std::vector<std::string> LwwMap::keys() const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : entries_) {
    if (!entry.deleted) out.push_back(key);
  }
  return out;
}

std::vector<std::string> LwwMap::all_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;
}

bool LwwMap::operator==(const LwwMap& other) const {
  // Convergence equality: same live keys with same values. Tombstone
  // metadata may differ in stamps without affecting observable state.
  if (keys() != other.keys()) return false;
  for (const auto& [key, entry] : entries_) {
    if (!entry.deleted && !(*entry.value == *other.find(key))) return false;
  }
  return true;
}

std::string LwwMap::digest() const {
  // The dump() of an object holding the live entries in key order, written
  // piece by piece instead of copying every value into a json::Object.
  std::string out = "{";
  for (const auto& [key, entry] : entries_) {
    if (entry.deleted) continue;
    if (out.size() > 1) out.push_back(',');
    json::dump_string_to(key, &out);
    out.push_back(':');
    entry.value->dump_to(&out);
  }
  out.push_back('}');
  return out;
}

json::Value LwwMap::to_json() const {
  json::Object obj;
  obj.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    obj.append(key, json::Value::object({{"value", entry.deleted ? json::Value() : *entry.value},
                                         {"stamp", entry.stamp.to_json()},
                                         {"deleted", entry.deleted}}));
  }
  return json::Value(std::move(obj));
}

LwwMap LwwMap::from_json(const json::Value& v) {
  LwwMap map;
  for (const auto& [key, entry] : v.as_object()) {
    Stamp stamp = Stamp::from_json(entry["stamp"]);
    map.assign(key, entry["deleted"].as_bool()
                        ? Entry{nullptr, std::move(stamp), true}
                        : live_entry(key, std::make_shared<const json::Value>(entry["value"]),
                                     std::move(stamp)));
  }
  return map;
}

}  // namespace edgstr::crdt
