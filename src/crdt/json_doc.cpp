#include "crdt/json_doc.h"

namespace edgstr::crdt {

void CrdtJson::initialize(const json::Value& snapshot) {
  // Self-clearing so re-initialization models a crashed replica reborn from
  // the checkpoint: all volatile CRDT state is lost, only identity survives.
  log_ = OpLog(log_.replica());
  state_ = LwwMap();
  // Baseline entries carry the zero stamp so any replicated op wins.
  for (const auto& [key, value] : snapshot.as_object()) {
    state_.put(key, value, Stamp{0, ""});
  }
}

void CrdtJson::set(const std::string& key, json::Value value) {
  json::Object payload;
  payload.reserve(3);
  payload.append("type", "set");
  payload.append("key", key);
  payload.append("value", std::move(value));
  Op op = log_.make_local(json::Value(std::move(payload)));
  log_.record(op);
  state_.put(key, op.share(op.payload()["value"]), op.stamp);
}

void CrdtJson::remove(const std::string& key) {
  Op op = log_.make_local(json::Value::object({{"type", "del"}, {"key", key}}));
  log_.record(op);
  state_.remove(key, op.stamp);
}

std::size_t CrdtJson::sync_from(const json::Value& current) {
  std::size_t ops = 0;
  // New or changed keys.
  for (const auto& [key, value] : current.as_object()) {
    const json::Value* existing = state_.find(key);
    if (!existing || !(*existing == value)) {
      set(key, value);
      ++ops;
    }
  }
  // Keys removed from the live state.
  for (const std::string& key : state_.keys()) {
    if (!current.find(key)) {
      remove(key);
      ++ops;
    }
  }
  return ops;
}

void CrdtJson::apply_payload(const Op& op) {
  const json::Value& payload = op.payload();
  const std::string& type = payload["type"].as_string();
  const std::string& key = payload["key"].as_string();
  if (type == "set") {
    state_.put(key, op.share(payload["value"]), op.stamp);
  } else if (type == "del") {
    state_.remove(key, op.stamp);
  }
}

std::size_t CrdtJson::applyChanges(const std::vector<Op>& ops) {
  std::size_t applied = 0;
  for (const Op& op : ops) {
    // Dedup is purely seen-based: after a crash wipes the log, this replica
    // recovers its *own* earlier ops from peers through the same path.
    if (log_.seen(op.origin, op.seq)) continue;
    log_.record(op);
    apply_payload(op);
    ++applied;
  }
  return applied;
}

json::Value CrdtJson::bootstrap_state() const {
  return json::Value::object({{"state", state_.to_json()}, {"log", log_.to_json()}});
}

void CrdtJson::restore_bootstrap(const json::Value& v) {
  state_ = LwwMap::from_json(v["state"]);
  log_.restore(v["log"]);
  // Live-state materialization (interpreter globals) is the owner's job:
  // ReplicaState re-seeds the interpreter from materialize() afterwards.
}

Snapshot CrdtJson::cut_snapshot() const {
  Snapshot snap;
  snap.state = json::Value::object({{"state", state_.to_json()}});
  snap.covered = log_.version();
  snap.lamport = log_.lamport();
  snap.digest = Snapshot::content_digest(snap.state);
  return snap;
}

void CrdtJson::install_snapshot(const Snapshot& snap) {
  state_ = LwwMap::from_json(snap.state["state"]);
  log_.reset_to(snap.covered, snap.lamport);
  // Live-state materialization (interpreter globals) is the owner's job,
  // exactly as for restore_bootstrap().
}

json::Value CrdtJson::materialize() const {
  // Keys come from keys(), so they are unique: append, never set.
  const std::vector<std::string> keys = state_.keys();
  json::Object obj;
  obj.reserve(keys.size());
  for (const std::string& key : keys) obj.append(key, *state_.find(key));
  return json::Value(std::move(obj));
}

}  // namespace edgstr::crdt
