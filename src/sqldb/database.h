// In-memory SQL database with transactions, snapshots and a mutation log.
//
// This is the substrate behind the paper's "Database Tables" replication
// unit (§III-C): EdgStr's shadow execution wraps SQL commands in
// START TRANSACTION / ROLLBACK to keep tables unchanged during profiling,
// and snapshots the whole database to capture the service init state.
// The mutation log feeds CRDT-Table so each committed row change becomes a
// CRDT update operation (§III-G).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sqldb/parser.h"
#include "sqldb/table.h"
#include "util/epoch.h"

namespace edgstr::sqldb {

/// A query result: column names plus rows of cells.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;
  std::vector<std::uint64_t> rids;  ///< aligned with rows (SELECT only)
  std::size_t affected = 0;         ///< rows touched by a mutation

  bool empty() const { return rows.empty(); }
  json::Value to_json() const;
};

/// One committed row-level change, consumed by CRDT-Table.
struct RowMutation {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind;
  std::string table;
  std::uint64_t rid;
  std::vector<SqlValue> cells;  ///< post-image (empty for deletes)
};

/// One table's serialized state plus its change stamp — the unit the
/// copy-on-write checkpointing layer shares between snapshots.
struct TableComponent {
  std::string name;
  std::uint64_t epoch = 0;                    ///< Table::epoch() at serialization time
  std::shared_ptr<const json::Value> value;   ///< Table::snapshot() JSON
};

class Database {
 public:
  Database() = default;

  /// Parses and executes one SQL statement. `params` bind `?` placeholders
  /// in order. Throws SqlError on parse/binding errors or unknown tables.
  ResultSet execute(const std::string& sql, const std::vector<SqlValue>& params = {});

  /// Executes a pre-parsed statement.
  ResultSet execute(const Statement& stmt, const std::vector<SqlValue>& params = {});

  bool has_table(const std::string& name) const { return tables_.count(name) > 0; }
  /// Read-only: every write goes through a Database method, which stamps
  /// the table it changes.
  const Table& table(const std::string& name) const;
  std::vector<std::string> table_names() const;

  /// Transaction control (single level; BEGIN inside a transaction throws).
  void begin();
  void commit();
  void rollback();
  bool in_transaction() const { return transaction_backup_.has_value(); }

  /// Whole-database snapshot/restore — the `save "init"` / `restore "init"`
  /// operations of §III-B.
  json::Value snapshot() const;
  void restore(const json::Value& snap);

  /// Copy-on-write snapshot surface. component_snapshots() serializes only
  /// tables whose epoch moved since the last call; untouched tables return
  /// the same shared JSON value (structural sharing across snapshots).
  std::vector<TableComponent> component_snapshots() const;
  /// Current change stamp of a table (see util::next_epoch); 0 if the
  /// table does not exist.
  std::uint64_t table_epoch(const std::string& name) const;
  /// Replaces (or creates) one table from a per-table snapshot. A nonzero
  /// `epoch` reinstates the stamp the content carried when it was captured
  /// (stamps are process-wide, so from any database); 0 means content of
  /// unknown provenance and stamps fresh.
  void restore_table(const json::Value& table_snap, std::uint64_t epoch);
  /// Drops a table without going through SQL; returns whether it existed.
  bool erase_table(const std::string& name);
  /// Forgets pending mutations (a restore resets the delta baseline).
  void clear_mutation_log();
  /// Makes this database equal to `source`: drops the tables `source`
  /// lacks and copies only the tables whose stamp differs, keeping the
  /// source's stamp. Clears the mutation log. Costs one stamp compare per
  /// table plus a copy of each table that differs.
  void sync_from(const Database& source);

  /// Approximate state size in bytes (serialized snapshot size); used for
  /// the cross-ISA S_app comparison in Figure 10(a).
  std::uint64_t state_size_bytes() const;

  /// Committed row mutations since the last drain. Mutations made inside a
  /// rolled-back transaction never appear.
  std::vector<RowMutation> drain_mutations();

  /// Applies a replicated mutation (CRDT delivery path) without re-logging.
  void apply_replicated(const RowMutation& mutation);

  /// Row writes of the CRDT materialization path. Like SQL writes they
  /// stamp the table they change; unlike them they never enter the
  /// mutation log, so a replicated row is not re-broadcast as a local edit.
  /// Each throws SqlError for an unknown table.
  std::uint64_t insert_row(const std::string& table, std::vector<SqlValue> cells);  ///< new rid
  /// Overwrites row `rid`'s cells; false (and no change) if it is absent.
  bool update_row(const std::string& table, std::uint64_t rid, std::vector<SqlValue> cells);
  /// Deletes row `rid`; returns whether it existed.
  bool delete_row(const std::string& table, std::uint64_t rid);

  bool operator==(const Database& other) const;

 private:
  struct CachedTable {
    std::uint64_t epoch = 0;
    std::shared_ptr<const json::Value> value;
  };

  std::map<std::string, Table> tables_;
  std::vector<RowMutation> mutation_log_;
  std::optional<std::map<std::string, Table>> transaction_backup_;
  std::size_t transaction_log_mark_ = 0;
  mutable std::map<std::string, CachedTable> snapshot_cache_;

  /// Stamps a table with a fresh process-wide epoch after a content change.
  static void touch(Table& table) { table.set_epoch(util::next_epoch()); }
  /// The table to write; throws SqlError if absent. Callers touch() it.
  Table& writable_table(const std::string& name);

  static SqlValue resolve(const SqlExpr& expr, const std::vector<SqlValue>& params);
  std::function<bool(const Row&)> compile_where(const Table& table,
                                                const std::vector<Condition>& conds,
                                                const std::vector<SqlValue>& params) const;
};

}  // namespace edgstr::sqldb
