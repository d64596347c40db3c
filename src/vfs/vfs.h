// Virtual file system — the "Files" replication unit (§III-C).
//
// Subject services read model files, write computed summaries, and append
// logs. EdgStr identifies file accesses by instrumenting invocations whose
// arguments are file URLs, then duplicates the identified files at replicas
// ("by copying or downloading"). The VFS supports exactly the operations
// that pipeline needs: read/write/append/exists/remove, access tracking,
// content fingerprints, and whole-tree snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "json/value.h"
#include "util/text.h"

namespace edgstr::vfs {

/// One file: contents plus a version counter bumped on every write.
/// `epoch` is the process-wide change stamp (util::next_epoch) assigned at
/// the last mutation: equal nonzero epochs imply equal content, across
/// file systems too (the copy-on-write snapshot invariant). A copied entry
/// keeps its stamp. The contents are a shared immutable body (util::Text):
/// reads hand it out by reference, and a write or append never changes
/// bytes another holder can see.
struct FileEntry {
  util::TextPtr contents;
  std::uint64_t version = 0;
  std::uint64_t epoch = 0;
};

/// One file's serialized state plus its change stamp — what the
/// copy-on-write checkpointing layer shares between snapshots.
struct FileComponent {
  std::string path;
  std::uint64_t epoch = 0;
  std::shared_ptr<const json::Value> value;  ///< {"contents":..., "version":...}
};

/// Record of one file access observed during profiling.
struct FileAccess {
  enum class Kind { kRead, kWrite, kAppend, kRemove };
  Kind kind;
  std::string path;
};

class Vfs {
 public:
  /// True if `text` looks like a file URL/path this VFS would manage —
  /// the classifier the instrumentation uses on function arguments.
  static bool looks_like_path(const std::string& text);

  bool exists(const std::string& path) const;
  /// Reads the full contents; throws std::out_of_range if absent.
  const std::string& read(const std::string& path);
  /// The file's shared body (no copy); throws std::out_of_range if absent.
  /// Tracked as a read, like read().
  util::TextPtr read_text(const std::string& path);
  /// Creates or overwrites.
  void write(const std::string& path, std::string contents);
  /// Creates or overwrites with a shared body: the file holds `contents`
  /// itself, so a string a script wrote is stored without a copy.
  void write(const std::string& path, util::TextPtr contents);
  /// Appends to an existing file (creates it if absent). Grows the body in
  /// place when the file holds it alone; otherwise writes a new body, so a
  /// value read earlier keeps its contents.
  void append(const std::string& path, std::string_view data);
  /// Removes the file; returns whether it existed.
  bool remove(const std::string& path);

  std::vector<std::string> list() const;
  std::uint64_t version(const std::string& path) const;
  /// Content fingerprint: the body's util::Text::hash(), comparable only
  /// within one process; 0 for a missing file.
  std::uint64_t fingerprint(const std::string& path) const;

  /// Total bytes stored (sum of file sizes).
  std::uint64_t total_bytes() const;

  /// Access tracking used during dynamic profiling.
  void start_tracking();
  std::vector<FileAccess> stop_tracking();
  bool tracking() const { return tracking_; }

  /// Full-tree snapshot/restore.
  json::Value snapshot() const;
  void restore(const json::Value& snap);

  /// Copy-on-write snapshot surface. component_snapshots() serializes only
  /// files whose epoch moved since the last call; untouched files return
  /// the same shared JSON value (structural sharing across snapshots).
  std::vector<FileComponent> component_snapshots() const;
  /// Current change stamp of a file; 0 if absent.
  std::uint64_t entry_epoch(const std::string& path) const;
  /// Replaces (or creates) one file from a per-file snapshot entry. A
  /// nonzero `epoch` reinstates the stamp the content carried when it was
  /// captured (from any VFS); 0 means content of unknown provenance and
  /// stamps fresh.
  void restore_file(const std::string& path, const json::Value& entry, std::uint64_t epoch);
  /// Removes a file without recording a tracked access (restore path).
  bool erase_file(const std::string& path);

  /// Copies a subset of paths from another VFS (replica initialization —
  /// the paper's "duplicates the identified files by copying").
  void copy_from(const Vfs& source, const std::set<std::string>& paths);
  /// Makes this VFS's files equal to `source`'s: drops the files `source`
  /// lacks and copies only the entries whose stamp differs (the body is
  /// shared, the stamp kept). Access tracking is untouched.
  void sync_from(const Vfs& source);

  bool operator==(const Vfs& other) const;

 private:
  struct CachedFile {
    std::uint64_t epoch = 0;
    std::shared_ptr<const json::Value> value;
  };

  std::map<std::string, FileEntry> files_;
  bool tracking_ = false;
  std::vector<FileAccess> accesses_;
  mutable std::map<std::string, CachedFile> snapshot_cache_;

  void track(FileAccess::Kind kind, const std::string& path);
};

}  // namespace edgstr::vfs
