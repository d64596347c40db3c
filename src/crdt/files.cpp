#include "crdt/files.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"

namespace edgstr::crdt {

CrdtFiles::CrdtFiles(std::string replica_id, vfs::Vfs* fs)
    : log_(std::move(replica_id)), fs_(fs) {
  if (!fs_) throw std::invalid_argument("CrdtFiles: null vfs");
}

bool CrdtFiles::is_append_merge(const std::string& path) const {
  for (const std::string& suffix : append_suffixes_) {
    if (util::ends_with(path, suffix)) return true;
  }
  return false;
}

void CrdtFiles::seed_baseline() {
  known_versions_.clear();
  last_contents_.clear();
  for (const std::string& path : fs_->list()) {
    known_versions_[path] = fs_->version(path);
    if (is_replicated(path)) {
      const std::string& contents = fs_->read(path);
      files_.put(path, json::Value(contents), Stamp{0, ""});
      last_contents_[path] = contents;
      rehash_path(path);
    }
  }
}

void CrdtFiles::initialize(const json::Value& vfs_snapshot,
                           std::set<std::string> replicated_paths) {
  // Self-clearing so re-initialization models a crashed replica reborn from
  // the checkpoint: all volatile CRDT state is lost, only identity survives.
  log_ = OpLog(log_.replica());
  files_ = LwwMap();
  appends_.clear();
  clear_hashes();
  fs_->restore(vfs_snapshot);
  attach_existing(std::move(replicated_paths));
}

void CrdtFiles::attach_existing(std::set<std::string> replicated_paths) {
  replicated_paths_ = std::move(replicated_paths);
  seed_baseline();
}

bool CrdtFiles::materialize_path(const std::string& path, std::string* out) const {
  const json::Value* base = files_.find(path);
  if (!base) return false;
  std::string content = base->as_string();
  auto it = appends_.find(path);
  if (it != appends_.end()) {
    // Appends older than the winning base write were superseded by it.
    // The base stamp is not directly exposed by LwwMap, so appends carry
    // responsibility: a put clears the path's local tail at apply time;
    // tails only hold appends at-or-after the last observed base.
    for (const AppendEntry& entry : it->second) content += entry.data;
  }
  *out = std::move(content);
  return true;
}

void CrdtFiles::sync_local_file(const std::string& path) {
  std::string content;
  if (materialize_path(path, &content)) {
    if (!fs_->exists(path) || fs_->read(path) != content) {
      fs_->write(path, content);
    }
    last_contents_[path] = content;
    known_versions_[path] = fs_->version(path);
    set_path_hash(path, &content);
  } else {
    if (fs_->exists(path)) fs_->remove(path);
    known_versions_.erase(path);
    last_contents_.erase(path);
    set_path_hash(path, nullptr);
  }
}

void CrdtFiles::set_path_hash(const std::string& path, const std::string* content) {
  std::uint64_t& term = path_hashes_[path];
  hash_ -= term;
  term = content ? entry_hash(path, *content) : 0;
  hash_ += term;
}

void CrdtFiles::rehash_path(const std::string& path) {
  std::string content;
  set_path_hash(path, materialize_path(path, &content) ? &content : nullptr);
}

void CrdtFiles::clear_hashes() {
  path_hashes_.clear();
  hash_ = 0;
}

std::size_t CrdtFiles::record_local_changes() {
  std::size_t count = 0;
  std::set<std::string> current;
  for (const std::string& path : fs_->list()) {
    current.insert(path);
    if (!is_replicated(path)) continue;
    const std::uint64_t version = fs_->version(path);
    auto it = known_versions_.find(path);
    if (it != known_versions_.end() && it->second == version) continue;
    known_versions_[path] = version;

    const std::string& contents = fs_->read(path);
    const auto last = last_contents_.find(path);
    const bool pure_append = is_append_merge(path) && last != last_contents_.end() &&
                             contents.size() > last->second.size() &&
                             util::starts_with(contents, last->second);
    if (pure_append) {
      const std::string suffix = contents.substr(last->second.size());
      Op op = log_.make_local(
          json::Value::object({{"type", "append"}, {"path", path}, {"data", suffix}}));
      log_.record(op);
      appends_[path].push_back(AppendEntry{op.stamp, suffix});
    } else {
      Op op = log_.make_local(json::Value::object(
          {{"type", "put"}, {"path", path}, {"contents", contents}}));
      log_.record(op);
      files_.put(path, op.share(op.payload()["contents"]), op.stamp);
      appends_[path].clear();  // rewrite supersedes the tail
    }
    last_contents_[path] = contents;
    rehash_path(path);
    ++count;
  }
  // Removed files.
  for (auto it = known_versions_.begin(); it != known_versions_.end();) {
    if (!current.count(it->first)) {
      if (is_replicated(it->first)) {
        Op op = log_.make_local(
            json::Value::object({{"type", "del"}, {"path", it->first}}));
        log_.record(op);
        files_.remove(it->first, op.stamp);
        appends_[it->first].clear();
        rehash_path(it->first);
        ++count;
      }
      last_contents_.erase(it->first);
      it = known_versions_.erase(it);
    } else {
      ++it;
    }
  }
  return count;
}

std::size_t CrdtFiles::applyChanges(const std::vector<Op>& ops) {
  std::size_t applied = 0;
  for (const Op& op : ops) {
    // Dedup is purely seen-based: after a crash wipes the log, this replica
    // recovers its *own* earlier ops from peers through the same path.
    if (log_.seen(op.origin, op.seq)) continue;
    log_.record(op);
    const std::string& type = op.payload()["type"].as_string();
    const std::string& path = op.payload()["path"].as_string();
    if (type == "put") {
      // A rewrite wins over the base by stamp; it also supersedes every
      // append older than it. Appends concurrent-or-newer survive on top.
      files_.put(path, op.share(op.payload()["contents"]), op.stamp);
      auto& tail = appends_[path];
      tail.erase(std::remove_if(tail.begin(), tail.end(),
                                [&](const AppendEntry& e) { return e.stamp < op.stamp; }),
                 tail.end());
    } else if (type == "append") {
      auto& tail = appends_[path];
      const AppendEntry entry{op.stamp, op.payload()["data"].as_string()};
      tail.insert(std::upper_bound(tail.begin(), tail.end(), entry), entry);
    } else {  // del
      files_.remove(path, op.stamp);
      auto& tail = appends_[path];
      tail.erase(std::remove_if(tail.begin(), tail.end(),
                                [&](const AppendEntry& e) { return e.stamp < op.stamp; }),
                 tail.end());
    }
    sync_local_file(path);
    ++applied;
  }
  return applied;
}

json::Value CrdtFiles::bootstrap_state() const {
  json::Object appends;
  for (const auto& [path, tail] : appends_) {
    json::Array entries;
    for (const AppendEntry& entry : tail) {
      entries.push_back(
          json::Value::object({{"stamp", entry.stamp.to_json()}, {"data", entry.data}}));
    }
    appends.append(path, json::Value(std::move(entries)));  // map keys: unique
  }
  return json::Value::object({{"files", files_.to_json()},
                              {"appends", json::Value(std::move(appends))},
                              {"log", log_.to_json()}});
}

void CrdtFiles::restore_bootstrap(const json::Value& v) {
  files_ = LwwMap::from_json(v["files"]);
  appends_.clear();
  for (const auto& [path, entries] : v["appends"].as_object()) {
    std::vector<AppendEntry>& tail = appends_[path];
    for (const json::Value& entry : entries.as_array()) {
      tail.push_back(AppendEntry{Stamp::from_json(entry["stamp"]), entry["data"].as_string()});
    }
  }
  // Re-materialize everything, tombstones included (they delete baseline
  // files the snapshot restore resurrected).
  log_.restore(v["log"]);
  std::set<std::string> paths;
  for (const std::string& path : files_.all_keys()) paths.insert(path);
  for (const auto& [path, tail] : appends_) paths.insert(path);
  clear_hashes();
  for (const std::string& path : paths) sync_local_file(path);
}

Snapshot CrdtFiles::cut_snapshot() const {
  json::Object appends;
  for (const auto& [path, tail] : appends_) {
    json::Array entries;
    for (const AppendEntry& entry : tail) {
      entries.push_back(
          json::Value::object({{"stamp", entry.stamp.to_json()}, {"data", entry.data}}));
    }
    appends.append(path, json::Value(std::move(entries)));  // map keys: unique
  }
  Snapshot snap;
  snap.state = json::Value::object(
      {{"files", files_.to_json()}, {"appends", json::Value(std::move(appends))}});
  snap.covered = log_.version();
  snap.lamport = log_.lamport();
  snap.digest = Snapshot::content_digest(snap.state);
  return snap;
}

void CrdtFiles::install_snapshot(const Snapshot& snap) {
  files_ = LwwMap::from_json(snap.state["files"]);
  appends_.clear();
  for (const auto& [path, entries] : snap.state["appends"].as_object()) {
    std::vector<AppendEntry>& tail = appends_[path];
    for (const json::Value& entry : entries.as_array()) {
      tail.push_back(AppendEntry{Stamp::from_json(entry["stamp"]), entry["data"].as_string()});
    }
  }
  log_.reset_to(snap.covered, snap.lamport);
  std::set<std::string> paths;
  for (const std::string& path : files_.all_keys()) paths.insert(path);
  for (const auto& [path, tail] : appends_) paths.insert(path);
  clear_hashes();
  for (const std::string& path : paths) sync_local_file(path);
}

std::string CrdtFiles::state_digest() const {
  json::Object view;  // keys() are unique: append, never set
  for (const std::string& path : files_.keys()) {
    std::string content;
    if (materialize_path(path, &content)) view.append(path, json::Value(std::move(content)));
  }
  return json::Value(std::move(view)).dump();
}

}  // namespace edgstr::crdt
