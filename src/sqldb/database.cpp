#include "sqldb/database.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace edgstr::sqldb {

json::Value ResultSet::to_json() const {
  json::Array out;
  for (const auto& row : rows) {
    json::Object obj;
    for (std::size_t i = 0; i < columns.size() && i < row.size(); ++i) {
      obj.set(columns[i], row[i].to_json());
    }
    out.emplace_back(std::move(obj));
  }
  return json::Value(std::move(out));
}

const Table& Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) throw SqlError("no such table: " + name);
  return it->second;
}

Table& Database::writable_table(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) throw SqlError("no such table: " + name);
  return it->second;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

SqlValue Database::resolve(const SqlExpr& expr, const std::vector<SqlValue>& params) {
  if (!expr.is_placeholder) return expr.literal;
  if (expr.placeholder_index >= params.size()) {
    throw SqlError("missing bind parameter #" + std::to_string(expr.placeholder_index + 1));
  }
  return params[expr.placeholder_index];
}

std::function<bool(const Row&)> Database::compile_where(
    const Table& table, const std::vector<Condition>& conds,
    const std::vector<SqlValue>& params) const {
  struct Compiled {
    std::size_t column;
    CompareOp op;
    SqlValue value;
  };
  std::vector<Compiled> compiled;
  compiled.reserve(conds.size());
  for (const Condition& cond : conds) {
    compiled.push_back(Compiled{table.column_index(cond.column), cond.op,
                                resolve(cond.value, params)});
  }
  return [compiled = std::move(compiled)](const Row& row) {
    for (const Compiled& c : compiled) {
      const SqlValue& cell = row.cells[c.column];
      bool pass = false;
      switch (c.op) {
        case CompareOp::kEq: pass = cell == c.value; break;
        case CompareOp::kNe: pass = !(cell == c.value); break;
        case CompareOp::kLt: pass = cell.compare(c.value) < 0; break;
        case CompareOp::kLe: pass = cell.compare(c.value) <= 0; break;
        case CompareOp::kGt: pass = cell.compare(c.value) > 0; break;
        case CompareOp::kGe: pass = cell.compare(c.value) >= 0; break;
        case CompareOp::kLike: pass = c.value.is_text() && cell.like(c.value.as_text()); break;
      }
      if (!pass) return false;
    }
    return true;
  };
}

ResultSet Database::execute(const std::string& sql, const std::vector<SqlValue>& params) {
  return execute(parse_sql(sql), params);
}

ResultSet Database::execute(const Statement& stmt, const std::vector<SqlValue>& params) {
  ResultSet result;

  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    if (tables_.count(create->table)) throw SqlError("table already exists: " + create->table);
    auto [it, inserted] = tables_.emplace(create->table, Table(create->table, create->columns));
    touch(it->second);
    return result;
  }
  if (const auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    if (!tables_.erase(drop->table)) throw SqlError("no such table: " + drop->table);
    return result;
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    Table& t = writable_table(insert->table);
    std::vector<SqlValue> cells(t.columns().size());
    if (insert->columns.empty()) {
      if (insert->values.size() != cells.size()) throw SqlError("INSERT value count mismatch");
      for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = resolve(insert->values[i], params);
    } else {
      if (insert->columns.size() != insert->values.size()) {
        throw SqlError("INSERT column/value count mismatch");
      }
      for (std::size_t i = 0; i < insert->columns.size(); ++i) {
        cells[t.column_index(insert->columns[i])] = resolve(insert->values[i], params);
      }
    }
    const std::uint64_t rid = t.insert(cells);
    touch(t);
    mutation_log_.push_back(
        RowMutation{RowMutation::Kind::kInsert, insert->table, rid, std::move(cells)});
    result.affected = 1;
    return result;
  }
  if (const auto* select = std::get_if<SelectStmt>(&stmt)) {
    const Table& t = table(select->table);
    auto pred = compile_where(t, select->where, params);

    std::vector<const Row*> matched;
    for (const Row& row : t.rows()) {
      if (pred(row)) matched.push_back(&row);
    }
    if (select->order_by) {
      const std::size_t col = t.column_index(*select->order_by);
      std::stable_sort(matched.begin(), matched.end(), [&](const Row* a, const Row* b) {
        const int cmp = a->cells[col].compare(b->cells[col]);
        return select->order_desc ? cmp > 0 : cmp < 0;
      });
    }
    if (select->limit && matched.size() > *select->limit) matched.resize(*select->limit);

    std::vector<std::size_t> proj;
    if (select->columns.empty()) {
      result.columns = t.columns();
      for (std::size_t i = 0; i < t.columns().size(); ++i) proj.push_back(i);
    } else {
      for (const std::string& c : select->columns) {
        result.columns.push_back(c);
        proj.push_back(t.column_index(c));
      }
    }
    for (const Row* row : matched) {
      std::vector<SqlValue> cells;
      cells.reserve(proj.size());
      for (std::size_t c : proj) cells.push_back(row->cells[c]);
      result.rows.push_back(std::move(cells));
      result.rids.push_back(row->rid);
    }
    return result;
  }
  if (const auto* update = std::get_if<UpdateStmt>(&stmt)) {
    Table& t = writable_table(update->table);
    auto pred = compile_where(t, update->where, params);
    std::vector<std::pair<std::size_t, SqlValue>> sets;
    for (const auto& [column, expr] : update->assignments) {
      sets.emplace_back(t.column_index(column), resolve(expr, params));
    }
    std::vector<RowMutation> staged;
    result.affected = t.update_where(pred, [&](Row& row) {
      for (const auto& [col, value] : sets) row.cells[col] = value;
      staged.push_back(
          RowMutation{RowMutation::Kind::kUpdate, update->table, row.rid, row.cells});
    });
    if (result.affected > 0) touch(t);
    for (auto& m : staged) mutation_log_.push_back(std::move(m));
    return result;
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    Table& t = writable_table(del->table);
    auto pred = compile_where(t, del->where, params);
    // Log before physically removing so we know the rids.
    for (const Row& row : t.rows()) {
      if (pred(row)) {
        mutation_log_.push_back(RowMutation{RowMutation::Kind::kDelete, del->table, row.rid, {}});
      }
    }
    result.affected = t.delete_where(pred);
    if (result.affected > 0) touch(t);
    return result;
  }
  if (std::holds_alternative<BeginStmt>(stmt)) {
    begin();
    return result;
  }
  if (std::holds_alternative<CommitStmt>(stmt)) {
    commit();
    return result;
  }
  if (std::holds_alternative<RollbackStmt>(stmt)) {
    rollback();
    return result;
  }
  throw SqlError("unhandled statement kind");
}

void Database::begin() {
  if (in_transaction()) throw SqlError("nested transactions are not supported");
  transaction_backup_ = tables_;
  transaction_log_mark_ = mutation_log_.size();
}

void Database::commit() {
  if (!in_transaction()) throw SqlError("COMMIT outside a transaction");
  transaction_backup_.reset();
}

void Database::rollback() {
  if (!in_transaction()) throw SqlError("ROLLBACK outside a transaction");
  tables_ = std::move(*transaction_backup_);
  transaction_backup_.reset();
  mutation_log_.resize(transaction_log_mark_);
}

json::Value Database::snapshot() const {
  json::Array tables;
  for (const auto& [name, t] : tables_) tables.push_back(t.snapshot());
  return json::Value::object({{"tables", json::Value(std::move(tables))}});
}

void Database::restore(const json::Value& snap) {
  if (in_transaction()) throw SqlError("cannot restore inside a transaction");
  tables_.clear();
  for (const json::Value& t : snap["tables"].as_array()) {
    Table table = Table::from_snapshot(t);
    const std::string name = table.name();
    auto [it, inserted] = tables_.emplace(name, std::move(table));
    touch(it->second);  // foreign content: stamp fresh
  }
  mutation_log_.clear();
}

std::vector<TableComponent> Database::component_snapshots() const {
  std::vector<TableComponent> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) {
    auto it = snapshot_cache_.find(name);
    if (it == snapshot_cache_.end() || it->second.epoch != t.epoch()) {
      auto value = std::make_shared<const json::Value>(t.snapshot());
      it = snapshot_cache_.insert_or_assign(name, CachedTable{t.epoch(), std::move(value)}).first;
    }
    out.push_back(TableComponent{name, it->second.epoch, it->second.value});
  }
  // Drop cache entries for tables that no longer exist.
  for (auto it = snapshot_cache_.begin(); it != snapshot_cache_.end();) {
    it = tables_.count(it->first) ? std::next(it) : snapshot_cache_.erase(it);
  }
  return out;
}

std::uint64_t Database::table_epoch(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.epoch();
}

void Database::restore_table(const json::Value& table_snap, std::uint64_t epoch) {
  if (in_transaction()) throw SqlError("cannot restore inside a transaction");
  Table table = Table::from_snapshot(table_snap);
  const std::string name = table.name();
  auto [it, inserted] = tables_.insert_or_assign(name, std::move(table));
  if (epoch != 0) {
    // Known content: reinstate the stamp it carried at capture time. The
    // process-wide counter never re-issues it, so stamp equality keeps
    // implying content equality.
    it->second.set_epoch(epoch);
  } else {
    touch(it->second);
  }
}

bool Database::erase_table(const std::string& name) {
  if (in_transaction()) throw SqlError("cannot restore inside a transaction");
  return tables_.erase(name) > 0;
}

void Database::clear_mutation_log() { mutation_log_.clear(); }

void Database::sync_from(const Database& source) {
  if (in_transaction()) throw SqlError("cannot sync inside a transaction");
  for (auto it = tables_.begin(); it != tables_.end();) {
    it = source.tables_.count(it->first) ? std::next(it) : tables_.erase(it);
  }
  for (const auto& [name, t] : source.tables_) {
    auto [it, inserted] = tables_.try_emplace(name, t);
    // Equal nonzero stamps mean equal content (util::next_epoch).
    if (!inserted && (t.epoch() == 0 || it->second.epoch() != t.epoch())) it->second = t;
  }
  mutation_log_.clear();
}

std::uint64_t Database::state_size_bytes() const { return snapshot().wire_size(); }

std::vector<RowMutation> Database::drain_mutations() {
  if (in_transaction()) {
    // Only the committed prefix is visible.
    std::vector<RowMutation> committed(mutation_log_.begin(),
                                       mutation_log_.begin() +
                                           static_cast<std::ptrdiff_t>(transaction_log_mark_));
    mutation_log_.erase(mutation_log_.begin(),
                        mutation_log_.begin() + static_cast<std::ptrdiff_t>(transaction_log_mark_));
    transaction_log_mark_ = 0;
    return committed;
  }
  std::vector<RowMutation> out = std::move(mutation_log_);
  mutation_log_.clear();
  return out;
}

void Database::apply_replicated(const RowMutation& mutation) {
  Table& t = writable_table(mutation.table);
  touch(t);
  switch (mutation.kind) {
    case RowMutation::Kind::kInsert:
      if (!t.find(mutation.rid)) t.insert_with_rid(mutation.rid, mutation.cells);
      break;
    case RowMutation::Kind::kUpdate:
      if (Row* row = t.find(mutation.rid)) {
        row->cells = mutation.cells;
      } else {
        t.insert_with_rid(mutation.rid, mutation.cells);  // update-wins resurrect
      }
      break;
    case RowMutation::Kind::kDelete:
      t.delete_where([&](const Row& row) { return row.rid == mutation.rid; });
      break;
  }
}

std::uint64_t Database::insert_row(const std::string& table, std::vector<SqlValue> cells) {
  Table& t = writable_table(table);
  const std::uint64_t rid = t.insert(std::move(cells));
  touch(t);
  return rid;
}

bool Database::update_row(const std::string& table, std::uint64_t rid,
                          std::vector<SqlValue> cells) {
  Table& t = writable_table(table);
  Row* row = t.find(rid);
  if (!row) return false;
  row->cells = std::move(cells);
  touch(t);
  return true;
}

bool Database::delete_row(const std::string& table, std::uint64_t rid) {
  Table& t = writable_table(table);
  if (t.delete_where([rid](const Row& row) { return row.rid == rid; }) == 0) return false;
  touch(t);
  return true;
}

bool Database::operator==(const Database& other) const { return tables_ == other.tables_; }

}  // namespace edgstr::sqldb
