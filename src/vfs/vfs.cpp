#include "vfs/vfs.h"

#include <iterator>
#include <memory>
#include <stdexcept>

#include "util/epoch.h"
#include "util/strings.h"

namespace edgstr::vfs {

namespace {

// One file's snapshot entry {"contents":..., "version":...}. The body is
// copied once, into the entry; an initializer list would copy it twice.
json::Value entry_json(const FileEntry& entry) {
  json::Object out;
  out.reserve(2);
  out.append("contents", json::Value(entry.contents->str()));
  out.append("version", static_cast<double>(entry.version));
  return json::Value(std::move(out));
}

}  // namespace

bool Vfs::looks_like_path(const std::string& text) {
  if (text.empty()) return false;
  if (util::starts_with(text, "file://") || util::starts_with(text, "http://") ||
      util::starts_with(text, "https://")) {
    return true;
  }
  if (util::starts_with(text, "/") || util::starts_with(text, "./") ||
      util::starts_with(text, "data/") || util::starts_with(text, "models/")) {
    // Require a file-ish tail: an extension or at least one more segment.
    return text.find('.') != std::string::npos || text.find('/', 1) != std::string::npos;
  }
  return false;
}

bool Vfs::exists(const std::string& path) const { return files_.count(path) > 0; }

const std::string& Vfs::read(const std::string& path) { return read_text(path)->str(); }

util::TextPtr Vfs::read_text(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) throw std::out_of_range("vfs: no such file: " + path);
  track(FileAccess::Kind::kRead, path);
  return it->second.contents;
}

void Vfs::write(const std::string& path, std::string contents) {
  write(path, util::make_text(std::move(contents)));
}

void Vfs::write(const std::string& path, util::TextPtr contents) {
  FileEntry& entry = files_[path];
  entry.contents = std::move(contents);
  ++entry.version;
  entry.epoch = util::next_epoch();
  track(FileAccess::Kind::kWrite, path);
}

void Vfs::append(const std::string& path, std::string_view data) {
  FileEntry& entry = files_[path];
  util::append_text(&entry.contents, data);
  ++entry.version;
  entry.epoch = util::next_epoch();
  track(FileAccess::Kind::kAppend, path);
}

bool Vfs::remove(const std::string& path) {
  track(FileAccess::Kind::kRemove, path);
  return files_.erase(path) > 0;
}

std::vector<std::string> Vfs::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, entry] : files_) out.push_back(path);
  return out;
}

std::uint64_t Vfs::version(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.version;
}

std::uint64_t Vfs::fingerprint(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.contents->hash();
}

std::uint64_t Vfs::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [path, entry] : files_) total += entry.contents->size();
  return total;
}

void Vfs::start_tracking() {
  tracking_ = true;
  accesses_.clear();
}

std::vector<FileAccess> Vfs::stop_tracking() {
  tracking_ = false;
  return std::move(accesses_);
}

void Vfs::track(FileAccess::Kind kind, const std::string& path) {
  if (tracking_) accesses_.push_back(FileAccess{kind, path});
}

json::Value Vfs::snapshot() const {
  json::Object files;
  files.reserve(files_.size());
  for (const auto& [path, entry] : files_) files.append(path, entry_json(entry));
  return json::Value(std::move(files));
}

void Vfs::restore(const json::Value& snap) {
  files_.clear();
  for (const auto& [path, entry] : snap.as_object()) {
    files_[path] = FileEntry{util::make_text(entry["contents"].as_string()),
                             static_cast<std::uint64_t>(entry["version"].as_number()),
                             util::next_epoch()};  // foreign content: stamp fresh
  }
}

std::vector<FileComponent> Vfs::component_snapshots() const {
  std::vector<FileComponent> out;
  out.reserve(files_.size());
  for (const auto& [path, entry] : files_) {
    auto it = snapshot_cache_.find(path);
    if (it == snapshot_cache_.end() || it->second.epoch != entry.epoch) {
      auto value = std::make_shared<const json::Value>(entry_json(entry));
      it = snapshot_cache_.insert_or_assign(path, CachedFile{entry.epoch, std::move(value)}).first;
    }
    out.push_back(FileComponent{path, it->second.epoch, it->second.value});
  }
  for (auto it = snapshot_cache_.begin(); it != snapshot_cache_.end();) {
    it = files_.count(it->first) ? std::next(it) : snapshot_cache_.erase(it);
  }
  return out;
}

std::uint64_t Vfs::entry_epoch(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.epoch;
}

void Vfs::restore_file(const std::string& path, const json::Value& entry, std::uint64_t epoch) {
  files_[path] = FileEntry{util::make_text(entry["contents"].as_string()),
                           static_cast<std::uint64_t>(entry["version"].as_number()),
                           epoch != 0 ? epoch : util::next_epoch()};
}

bool Vfs::erase_file(const std::string& path) { return files_.erase(path) > 0; }

void Vfs::copy_from(const Vfs& source, const std::set<std::string>& paths) {
  for (const std::string& path : paths) {
    auto it = source.files_.find(path);
    if (it != source.files_.end()) files_[path] = it->second;  // shares the body
  }
}

void Vfs::sync_from(const Vfs& source) {
  for (auto it = files_.begin(); it != files_.end();) {
    it = source.files_.count(it->first) ? std::next(it) : files_.erase(it);
  }
  for (const auto& [path, entry] : source.files_) {
    FileEntry& mine = files_[path];
    // Equal nonzero stamps mean equal content (util::next_epoch).
    if (entry.epoch == 0 || mine.epoch != entry.epoch) mine = entry;
  }
}

bool Vfs::operator==(const Vfs& other) const {
  if (files_.size() != other.files_.size()) return false;
  for (const auto& [path, entry] : files_) {
    auto it = other.files_.find(path);
    if (it == other.files_.end()) return false;
    if (it->second.contents != entry.contents &&
        it->second.contents->str() != entry.contents->str()) {
      return false;
    }
  }
  return true;
}

}  // namespace edgstr::vfs
