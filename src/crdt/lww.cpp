#include "crdt/lww.h"

namespace edgstr::crdt {

std::optional<json::Value> LwwMap::get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.deleted) return std::nullopt;
  return it->second.value;
}

void LwwMap::put(const std::string& key, json::Value value, Stamp stamp) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.stamp < stamp) {
    entries_[key] = Entry{std::move(value), stamp, false};
  }
}

void LwwMap::remove(const std::string& key, Stamp stamp) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.stamp < stamp) {
    entries_[key] = Entry{json::Value(), stamp, true};
  }
}

void LwwMap::merge(const LwwMap& other) {
  for (const auto& [key, entry] : other.entries_) {
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.stamp < entry.stamp) {
      entries_[key] = entry;
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
    map.entries_[key] = Entry{entry["value"], Stamp::from_json(entry["stamp"]),
                              entry["deleted"].as_bool()};
  }
  return map;
}

}  // namespace edgstr::crdt
