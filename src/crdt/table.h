// CRDT-Table: replicated database tables (§III-G).
//
// Bridges the MiniSQL Database's row-mutation log and the CRDT op stream.
// Rows are identified by a *global key* "origin:rid" so rows inserted
// concurrently at different replicas never collide even when their local
// rids do; a rid-translation map reconciles global keys with each replica's
// local storage. Concurrent updates to the same row resolve by LWW stamp.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "crdt/change.h"
#include "crdt/lww.h"
#include "crdt/replicated_doc.h"
#include "sqldb/database.h"

namespace edgstr::crdt {

class CrdtTable : public ReplicatedDoc {
 public:
  /// `db` is the replica's local database (the materialized view).
  CrdtTable(std::string replica_id, sqldb::Database* db);

  const std::string& replica() const { return log_.replica(); }

  /// Restores the shared snapshot into the local database and keys every
  /// baseline row as "init:<rid>". Every replica must initialize from the
  /// same snapshot (the checkpointed init state of §III-B). Re-entrant:
  /// calling it again first discards all CRDT state (the crash/rebirth
  /// path of the simulation harness).
  void initialize(const json::Value& db_snapshot);

  /// Cloud-master variant: keys the *current* database contents as the
  /// baseline without restoring. The database must hold exactly the state
  /// the snapshot shipped to the edges (same tables, rows, and rids), which
  /// the deployment builder guarantees by snapshotting atomically.
  void attach_existing();

  /// Converts mutations the local service has committed (drained from the
  /// Database's mutation log) into CRDT ops. Call after each execution.
  /// Returns the number of ops generated.
  std::size_t record_local_mutations();

  std::vector<Op> getChanges(const VersionVector& known) const {
    return log_.changes_since(known);
  }
  /// Applies remote ops to the CRDT state and materializes the effect into
  /// the local database. Returns how many ops were new.
  std::size_t applyChanges(const std::vector<Op>& ops);

  const VersionVector& version() const override { return log_.version(); }

  /// Drops ops all peers have acknowledged (see OpLog::compact).
  std::size_t compact(const VersionVector& acked) override { return log_.compact(acked); }
  bool can_serve(const VersionVector& known) const override { return log_.can_serve(known); }
  std::size_t op_count() const override { return log_.size(); }

  // ReplicatedDoc life cycle (the generic sync path).
  std::size_t record_local() override { return record_local_mutations(); }
  std::vector<Op> changes_since(const VersionVector& known) const override {
    return getChanges(known);
  }
  std::size_t apply(const std::vector<Op>& ops) override { return applyChanges(ops); }
  std::string state_digest() const override { return rows_.digest(); }
  std::uint64_t state_hash() const override { return rows_.state_hash(); }
  json::Value bootstrap_state() const override;
  void restore_bootstrap(const json::Value& v) override;
  Snapshot cut_snapshot() const override;
  void install_snapshot(const Snapshot& snap) override;
  void set_origin(const std::string& origin) override { log_.set_origin(origin); }

  /// Number of live replicated rows.
  std::size_t live_rows() const { return rows_.live_size(); }
  /// The live replicated row {"table", "cells", ...} under a global key,
  /// or nullptr, without copying it (see LwwMap::find).
  const json::Value* find_row(const std::string& global_key) const {
    return rows_.find(global_key);
  }

 private:
  OpLog log_;
  sqldb::Database* db_;
  LwwMap rows_;  ///< global key -> {"table": ..., "cells": [...]}

  std::map<std::string, std::uint64_t> key_to_rid_;  ///< global key -> local rid
  std::map<std::string, std::map<std::uint64_t, std::string>> rid_to_key_;  ///< per table

  std::string key_for(const std::string& table, std::uint64_t rid);
  void materialize(const std::string& key);
};

}  // namespace edgstr::crdt
