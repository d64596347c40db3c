// In-memory table: ordered columns, rows with stable hidden row ids.
//
// Row ids are what CRDT-Table keys on: each row maps to one LWW-map entry,
// so concurrent edits to *different* rows never conflict and edits to the
// same row resolve by timestamp.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "json/value.h"
#include "sqldb/value.h"

namespace edgstr::sqldb {

struct Row {
  std::uint64_t rid = 0;          ///< stable per-table row id
  std::vector<SqlValue> cells;    ///< aligned with Table::columns()
};

class Table {
 public:
  Table() = default;
  Table(std::string name, std::vector<std::string> columns);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& columns() const { return columns_; }
  /// Index of a column; throws std::out_of_range if unknown.
  std::size_t column_index(const std::string& column) const;
  bool has_column(const std::string& column) const;

  const std::vector<Row>& rows() const { return rows_; }
  std::size_t row_count() const { return rows_.size(); }

  /// Appends a row (cells must match the column count); returns its rid.
  std::uint64_t insert(std::vector<SqlValue> cells);
  /// Inserts a row preserving a specific rid (replication path). Advances
  /// the internal rid counter past it.
  void insert_with_rid(std::uint64_t rid, std::vector<SqlValue> cells);

  /// Applies `update` to rows matching `pred`; returns affected count.
  std::size_t update_where(const std::function<bool(const Row&)>& pred,
                           const std::function<void(Row&)>& update);
  /// Deletes rows matching `pred`; returns deleted count.
  std::size_t delete_where(const std::function<bool(const Row&)>& pred);

  /// Finds a row by rid; nullptr if absent.
  const Row* find(std::uint64_t rid) const;
  Row* find(std::uint64_t rid);

  /// Full-state JSON snapshot (schema + rows + rid counter).
  json::Value snapshot() const;
  static Table from_snapshot(const json::Value& snap);

  /// Change stamp maintained by the owning Database: every content change
  /// re-stamps the table from the process-wide counter (util::next_epoch),
  /// so equal nonzero epochs imply equal content, across databases too.
  /// 0 = never stamped. A copy keeps the stamp. Database hands out no
  /// writable Table, so no write escapes the stamp.
  std::uint64_t epoch() const { return epoch_; }
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }

  bool operator==(const Table& other) const;

 private:
  std::string name_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  std::uint64_t next_rid_ = 1;
  std::uint64_t epoch_ = 0;
};

}  // namespace edgstr::sqldb
