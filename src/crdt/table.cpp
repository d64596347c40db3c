#include "crdt/table.h"

#include <stdexcept>

namespace edgstr::crdt {

namespace {

json::Value cells_to_json(const std::vector<sqldb::SqlValue>& cells) {
  json::Array arr;
  arr.reserve(cells.size());
  for (const sqldb::SqlValue& cell : cells) arr.push_back(cell.to_json());
  return json::Value(std::move(arr));
}

std::vector<sqldb::SqlValue> cells_from_json(const json::Value& v) {
  std::vector<sqldb::SqlValue> cells;
  cells.reserve(v.as_array().size());
  for (const json::Value& cell : v.as_array()) cells.push_back(sqldb::SqlValue::from_json(cell));
  return cells;
}

}  // namespace

CrdtTable::CrdtTable(std::string replica_id, sqldb::Database* db)
    : log_(std::move(replica_id)), db_(db) {
  if (!db_) throw std::invalid_argument("CrdtTable: null database");
}

void CrdtTable::initialize(const json::Value& db_snapshot) {
  // Self-clearing so re-initialization models a crashed replica reborn from
  // the checkpoint: all volatile CRDT state is lost, only identity survives.
  log_ = OpLog(log_.replica());
  rows_ = LwwMap();
  key_to_rid_.clear();
  rid_to_key_.clear();
  db_->restore(db_snapshot);
  attach_existing();
}

void CrdtTable::attach_existing() {
  for (const std::string& table : db_->table_names()) {
    for (const sqldb::Row& row : db_->table(table).rows()) {
      const std::string key = "init:" + table + ":" + std::to_string(row.rid);
      key_to_rid_[key] = row.rid;
      rid_to_key_[table][row.rid] = key;
      rows_.put(key,
                json::Value::object({{"table", table}, {"cells", cells_to_json(row.cells)}}),
                Stamp{0, ""});
    }
  }
}

std::string CrdtTable::key_for(const std::string& table, std::uint64_t rid) {
  auto table_it = rid_to_key_.find(table);
  if (table_it != rid_to_key_.end()) {
    auto it = table_it->second.find(rid);
    if (it != table_it->second.end()) return it->second;
  }
  // Locally-originated row: mint a globally unique key.
  const std::string key = log_.replica() + ":" + table + ":" + std::to_string(rid);
  key_to_rid_[key] = rid;
  rid_to_key_[table][rid] = key;
  return key;
}

std::size_t CrdtTable::record_local_mutations() {
  std::size_t count = 0;
  for (const sqldb::RowMutation& m : db_->drain_mutations()) {
    const std::string key = key_for(m.table, m.rid);
    const bool del = m.kind == sqldb::RowMutation::Kind::kDelete;
    json::Object payload;
    payload.reserve(4);
    payload.append("type", del ? "del" : "put");
    payload.append("key", key);
    payload.append("table", m.table);
    if (!del) payload.append("cells", cells_to_json(m.cells));
    Op op = log_.make_local(json::Value(std::move(payload)));
    log_.record(op);
    if (del) {
      rows_.remove(key, op.stamp);
      // Local DB already reflects the delete.
      auto rid_it = key_to_rid_.find(key);
      if (rid_it != key_to_rid_.end()) {
        rid_to_key_[m.table].erase(rid_it->second);
        key_to_rid_.erase(rid_it);
      }
    } else {
      rows_.put(key, op.share(op.payload()), op.stamp);
    }
    ++count;
  }
  return count;
}

void CrdtTable::materialize(const std::string& key) {
  const json::Value* row = rows_.find(key);
  if (!row) {
    // Deleted: remove the local row if we track it.
    auto it = key_to_rid_.find(key);
    if (it != key_to_rid_.end()) {
      // Table name is embedded in the key between the first and last ':'.
      // We stored it in rid_to_key_, so scan; cheap at our scale.
      for (auto& [table, rid_map] : rid_to_key_) {
        auto rid_it = rid_map.find(it->second);
        if (rid_it != rid_map.end() && rid_it->second == key) {
          if (db_->has_table(table)) db_->delete_row(table, it->second);
          rid_map.erase(rid_it);
          break;
        }
      }
      key_to_rid_.erase(it);
    }
    return;
  }
  const std::string& table = (*row)["table"].as_string();
  if (!db_->has_table(table)) return;  // schema not present locally
  std::vector<sqldb::SqlValue> cells = cells_from_json((*row)["cells"]);

  auto it = key_to_rid_.find(key);
  if (it != key_to_rid_.end() && db_->table(table).find(it->second)) {
    db_->update_row(table, it->second, std::move(cells));
    return;
  }
  // New row, or one that vanished locally (shouldn't happen): insert.
  const std::uint64_t rid = db_->insert_row(table, std::move(cells));
  key_to_rid_[key] = rid;
  rid_to_key_[table][rid] = key;
}

std::size_t CrdtTable::applyChanges(const std::vector<Op>& ops) {
  std::size_t applied = 0;
  for (const Op& op : ops) {
    // Dedup is purely seen-based: after a crash wipes the log, this replica
    // recovers its *own* earlier ops from peers through the same path.
    if (log_.seen(op.origin, op.seq)) continue;
    log_.record(op);
    const std::string& type = op.payload()["type"].as_string();
    const std::string& key = op.payload()["key"].as_string();
    if (type == "del") {
      rows_.remove(key, op.stamp);
    } else {
      rows_.put(key, op.share(op.payload()), op.stamp);
    }
    materialize(key);
    ++applied;
  }
  // Note: materialize() writes through Database's replicated row writes,
  // which stamp the table but bypass the mutation log, so replicated rows
  // are never re-broadcast as local edits.
  return applied;
}

json::Value CrdtTable::bootstrap_state() const {
  return json::Value::object({{"rows", rows_.to_json()}, {"log", log_.to_json()}});
}

void CrdtTable::restore_bootstrap(const json::Value& v) {
  rows_ = LwwMap::from_json(v["rows"]);
  log_.restore(v["log"]);
  // Re-materialize everything, tombstones included (they delete baseline
  // rows the snapshot restore resurrected).
  for (const std::string& key : rows_.all_keys()) materialize(key);
}

Snapshot CrdtTable::cut_snapshot() const {
  Snapshot snap;
  snap.state = json::Value::object({{"rows", rows_.to_json()}});
  snap.covered = log_.version();
  snap.lamport = log_.lamport();
  snap.digest = Snapshot::content_digest(snap.state);
  return snap;
}

void CrdtTable::install_snapshot(const Snapshot& snap) {
  rows_ = LwwMap::from_json(snap.state["rows"]);
  log_.reset_to(snap.covered, snap.lamport);
  for (const std::string& key : rows_.all_keys()) materialize(key);
}

}  // namespace edgstr::crdt
