#include "crdt/lww.h"

#include "util/strings.h"

namespace edgstr::crdt {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t entry_hash(std::string_view key, std::string_view value_repr) {
  return mix64(util::fnv1a(key) * 0x9e3779b97f4a7c15ULL + util::fnv1a(value_repr));
}

LwwMap::Entry LwwMap::live_entry(const std::string& key, json::Value value, Stamp stamp) {
  const std::uint64_t hash = entry_hash(key, value.dump());
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
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.deleted) return std::nullopt;
  return it->second.value;
}

void LwwMap::put(const std::string& key, json::Value value, Stamp stamp) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.stamp < stamp) {
    assign(key, live_entry(key, std::move(value), stamp));
  }
}

void LwwMap::remove(const std::string& key, Stamp stamp) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.stamp < stamp) {
    assign(key, Entry{json::Value(), stamp, true});
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
  for (const std::string& key : keys()) {
    if (!(*get(key) == *other.get(key))) return false;
  }
  return true;
}

std::string LwwMap::digest() const {
  json::Object live;
  for (const auto& [key, entry] : entries_) {
    if (!entry.deleted) live.set(key, entry.value);
  }
  return json::Value(std::move(live)).dump();
}

json::Value LwwMap::to_json() const {
  json::Object obj;
  for (const auto& [key, entry] : entries_) {
    obj.set(key, json::Value::object({{"value", entry.value},
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
                        ? Entry{entry["value"], std::move(stamp), true}
                        : live_entry(key, entry["value"], std::move(stamp)));
  }
  return map;
}

}  // namespace edgstr::crdt
