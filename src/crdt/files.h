// CRDT-Files: replicated file trees (§III-G).
//
// Bridges a replica's VFS and the CRDT op stream. Two merge modes:
//
//   whole-file LWW  — concurrent writers: the later stamp's full content
//                     wins (the replication granularity automerge applies
//                     to binary files).
//   append-merge    — for log-style paths (default: "*.log"), an appended
//                     suffix becomes its own op; concurrent appends from
//                     different replicas MERGE in stamp order instead of
//                     one overwriting the other — list-CRDT semantics, so
//                     no replica's log entries are ever lost.
//
// Local changes are detected by version-counter scan, so the service code
// needs no modification to have its fs writes replicated.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "crdt/change.h"
#include "crdt/lww.h"
#include "crdt/replicated_doc.h"
#include "vfs/vfs.h"

namespace edgstr::crdt {

class CrdtFiles : public ReplicatedDoc {
 public:
  CrdtFiles(std::string replica_id, vfs::Vfs* fs);

  const std::string& replica() const { return log_.replica(); }

  /// Restores the shared VFS snapshot and records baseline versions. Only
  /// the paths the analysis identified as service state are replicated; an
  /// empty set means "replicate everything" (used by tests). Re-entrant:
  /// calling it again first discards all CRDT state (crash/rebirth).
  void initialize(const json::Value& vfs_snapshot, std::set<std::string> replicated_paths = {});

  /// Cloud-master variant: keys the current VFS contents as the baseline
  /// without restoring (see CrdtTable::attach_existing).
  void attach_existing(std::set<std::string> replicated_paths = {});

  /// Paths with these suffixes use append-merge instead of whole-file LWW.
  void set_append_merge_suffixes(std::set<std::string> suffixes) {
    append_suffixes_ = std::move(suffixes);
  }

  /// Scans the VFS for changed/removed files and emits ops. Returns the
  /// number of ops generated.
  std::size_t record_local_changes();

  std::vector<Op> getChanges(const VersionVector& known) const {
    return log_.changes_since(known);
  }
  std::size_t applyChanges(const std::vector<Op>& ops);

  const VersionVector& version() const override { return log_.version(); }

  /// Drops ops all peers have acknowledged (see OpLog::compact).
  std::size_t compact(const VersionVector& acked) override { return log_.compact(acked); }
  bool can_serve(const VersionVector& known) const override { return log_.can_serve(known); }
  std::size_t op_count() const override { return log_.size(); }

  // ReplicatedDoc life cycle (the generic sync path).
  std::size_t record_local() override { return record_local_changes(); }
  std::vector<Op> changes_since(const VersionVector& known) const override {
    return getChanges(known);
  }
  std::size_t apply(const std::vector<Op>& ops) override { return applyChanges(ops); }
  /// Digest over the *materialized* view (base + merged append tails), the
  /// same observable the convergence check always used for files.
  std::string state_digest() const override;
  /// Sum of entry_hash(path, materialized contents) over live paths; only
  /// the path an op or local change touched is re-hashed.
  std::uint64_t state_hash() const override { return hash_; }
  json::Value bootstrap_state() const override;
  void restore_bootstrap(const json::Value& v) override;
  Snapshot cut_snapshot() const override;
  void install_snapshot(const Snapshot& snap) override;
  void set_origin(const std::string& origin) override { log_.set_origin(origin); }

 private:
  struct AppendEntry {
    Stamp stamp;
    std::string data;
    bool operator<(const AppendEntry& other) const { return stamp < other.stamp; }
  };

  OpLog log_;
  vfs::Vfs* fs_;
  LwwMap files_;  ///< path -> base contents (LWW)
  std::map<std::string, std::vector<AppendEntry>> appends_;  ///< append-merge tails
  std::map<std::string, std::uint64_t> known_versions_;
  std::map<std::string, std::string> last_contents_;  ///< for append detection
  std::set<std::string> replicated_paths_;  ///< empty = all
  std::set<std::string> append_suffixes_ = {".log"};
  /// path -> its term in hash_ (0 while the path is not live).
  std::map<std::string, std::uint64_t> path_hashes_;
  std::uint64_t hash_ = 0;

  bool is_replicated(const std::string& path) const {
    return replicated_paths_.empty() || replicated_paths_.count(path) > 0;
  }
  bool is_append_merge(const std::string& path) const;

  /// Converged view of one path (base + stamp-ordered surviving appends).
  /// Returns false if the path is deleted.
  bool materialize_path(const std::string& path, std::string* out) const;
  /// Writes the materialized view into the local VFS and refreshes the
  /// change-detection bookkeeping and the path's hash term.
  void sync_local_file(const std::string& path);

  /// Replaces `path`'s term in hash_ with the hash of `content` (nullptr:
  /// the path is not live and contributes nothing).
  void set_path_hash(const std::string& path, const std::string* content);
  /// Re-hashes `path` from its materialized view.
  void rehash_path(const std::string& path);
  /// Drops every hash term; callers then re-hash each live path.
  void clear_hashes();

  void seed_baseline();
};

}  // namespace edgstr::crdt
