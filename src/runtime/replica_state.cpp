#include "runtime/replica_state.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace edgstr::runtime {

namespace {

/// True when `a` holds a component strictly past `b` (missing counts as 0).
bool is_ahead(const crdt::VersionVector& a, const crdt::VersionVector& b) {
  for (const auto& [origin, seq] : a) {
    if (seq == 0) continue;
    auto it = b.find(origin);
    if (it == b.end() || it->second < seq) return true;
  }
  return false;
}

}  // namespace

ReplicaState::ReplicaState(std::string replica_id, ServiceRuntime* service,
                           std::set<std::string> replicated_files,
                           std::set<std::string> replicated_globals)
    : id_(std::move(replica_id)),
      service_(service),
      tables_(id_, &service->database()),
      files_(id_, &service->filesystem()),
      globals_(id_),
      replicated_files_(std::move(replicated_files)),
      replicated_globals_(std::move(replicated_globals)) {
  files_.attach_existing(replicated_files_);
  if (!replicated_globals_.count("*")) {
    for (const std::string& name : replicated_globals_) {
      replicated_global_syms_.push_back(util::intern(name));
    }
  }
  // The globals unit reads from / writes back to the interpreter through
  // hooks, so the generic doc-unit loops need no special case for it.
  globals_.set_local_source([this] { return filtered_globals(); });
  globals_.set_apply_hook([this](const std::vector<crdt::Op>& ops) { materialize_globals(ops); });
  units_ = {{"tables", &tables_}, {"files", &files_}, {"globals", &globals_}};
}

void ReplicaState::crash_reset(const trace::Snapshot& snapshot) {
  initialize_from_snapshot(snapshot);
  // initialize() preserves the log's current origin, so the new epoch must
  // land after it. Old-life ops already replicated elsewhere keep flowing
  // under the old origin; nothing this life mints can collide with them.
  ++rebirths_;
  const std::string origin = id_ + "~" + std::to_string(rebirths_);
  for (const DocUnit& unit : units_) unit.doc->set_origin(origin);
}

void ReplicaState::initialize_from_snapshot(const trace::Snapshot& snapshot) {
  tables_.initialize(snapshot.database_json());
  files_.initialize(snapshot.files_json(), replicated_files_);
  trace::restore_globals(service_->interpreter(), snapshot.globals_json());
  // The CRDT baseline carries only the *replicated* globals — otherwise a
  // later record_local() would read the filtered live state, miss the
  // unreplicated keys, and emit spurious remove ops for them.
  globals_.initialize(filtered_globals());
  service_->database().drain_mutations();
}

void ReplicaState::attach_existing() {
  tables_.attach_existing();
  globals_.initialize(filtered_globals());
}

json::Value ReplicaState::filtered_globals() {
  if (replicated_globals_.count("*")) return trace::capture_globals(service_->interpreter());
  // Serialize only the replicated names. They come in the set's name order,
  // the order capture_globals sorts into, so the JSON is the same as
  // capturing every global and filtering.
  minijs::Environment& env = *service_->interpreter().globals();
  json::Object out;
  for (const util::Symbol sym : replicated_global_syms_) {
    const minijs::JsValue* value = env.find_local(sym);
    if (value && !value->is_callable()) out.append(util::symbol_name(sym), value->to_json());
  }
  return json::Value(std::move(out));
}

void ReplicaState::materialize_globals(const std::vector<crdt::Op>& applied) {
  minijs::Environment& env = *service_->interpreter().globals();
  for (const crdt::Op& op : applied) {
    const std::string& key = op.payload()["key"].as_string();
    const json::Value* live = globals_.find(key);
    if (live) {
      env.define(key, minijs::JsValue::from_json(*live));
    } else {
      env.erase_local(util::intern(key));
    }
  }
}

std::size_t ReplicaState::record_local() {
  const bool tagging = telemetry_ && telemetry_->active_context().valid();
  std::size_t ops = 0;
  for (const DocUnit& unit : units_) {
    crdt::VersionVector durable_before;
    if (durable_) durable_before = unit.doc->version();
    if (!tagging) {
      ops += unit.doc->record_local();
    } else {
      // Every op harvested here was produced by the request whose trace is
      // active: local ops carry this replica's origin with contiguous seqs,
      // so the new ones are exactly (before, after].
      auto own_seq = [&]() -> std::uint64_t {
        const crdt::VersionVector& v = unit.doc->version();
        auto it = v.find(id_);
        return it == v.end() ? 0 : it->second;
      };
      const std::uint64_t before = own_seq();
      ops += unit.doc->record_local();
      const std::uint64_t after = own_seq();
      for (std::uint64_t seq = before + 1; seq <= after; ++seq) {
        telemetry_->tag_op(unit.name, id_, seq);
      }
    }
    if (durable_) {
      for (const crdt::Op& op : unit.doc->changes_since(durable_before)) {
        durable_->append_op(unit.name, op);
      }
    }
  }
  // fsync before returning: the caller is about to ack the client, and an
  // acked-but-unsynced op is exactly what durable-op-loss forbids.
  if (durable_ && ops > 0) durable_->sync();
  return ops;
}

crdt::ReplicatedDoc* ReplicaState::doc(const std::string& name) const {
  for (const DocUnit& unit : units_) {
    if (unit.name == name) return unit.doc;
  }
  return nullptr;
}

crdt::SyncMessage ReplicaState::collect_changes(const crdt::DocVersions& peer_has) const {
  // An unbounded budget never truncates, so this stays the "whole delta"
  // call sites expect.
  return collect_changes(peer_has, std::numeric_limits<std::uint64_t>::max());
}

crdt::SyncMessage ReplicaState::collect_changes(const crdt::DocVersions& peer_has,
                                                std::uint64_t budget_bytes) const {
  static const crdt::VersionVector kNothing;
  crdt::SyncMessage message;
  message.from = id_;
  std::uint64_t spent = 0;
  bool any_included = false;
  for (const DocUnit& unit : units_) {
    auto it = peer_has.find(unit.name);
    const crdt::VersionVector& known = it == peer_has.end() ? kNothing : it->second;
    if (!unit.doc->can_serve(known)) {
      throw std::runtime_error("sync: " + id_ + " compacted doc '" + unit.name +
                               "' past the peer's version; peer must bootstrap from a snapshot");
    }
    if (message.truncated) continue;  // budget exhausted at an earlier unit
    std::vector<crdt::Op> pending = unit.doc->changes_since(known);
    if (pending.empty()) {
      message.versions[unit.name] = unit.doc->version();
      continue;
    }
    // changes_since returns log order — per-origin contiguous ascending —
    // so any whole-op prefix is gap-free and safe to apply on its own.
    std::size_t take = 0;
    while (take < pending.size()) {
      const std::uint64_t cost = pending[take].wire_size();
      if (any_included && cost > budget_bytes - spent) break;
      spent += std::min(cost, budget_bytes - spent);  // saturating: spent <= budget
      any_included = true;
      ++take;
    }
    if (take == pending.size()) {
      message.versions[unit.name] = unit.doc->version();
      message.ops[unit.name] = std::move(pending);
    } else {
      // Cut mid-unit: advertise only what the included prefix delivers.
      // Floor at min(peer's claim, our own version) — both provably held
      // by *us* (the peer's claim can exceed us on its own origins, and an
      // ack cache fed from this must stay a lower bound on our holdings) —
      // then raise by the included ops.
      crdt::VersionVector capped = crdt::version_min(known, unit.doc->version());
      for (std::size_t i = 0; i < take; ++i) {
        std::uint64_t& seq = capped[pending[i].origin];
        seq = std::max(seq, pending[i].seq);
      }
      message.versions[unit.name] = std::move(capped);
      pending.resize(take);
      message.ops[unit.name] = std::move(pending);
      message.truncated = true;
    }
  }
  return message;
}

std::size_t ReplicaState::apply_message(const crdt::SyncMessage& message) {
  std::size_t applied = 0;
  for (const auto& [name, ops] : message.ops) {
    crdt::ReplicatedDoc* unit = doc(name);
    if (!unit) throw std::runtime_error("sync: " + id_ + " has no doc unit '" + name + "'");
    if (durable_) {
      // Replicated ops must survive a crash too — otherwise recovery would
      // silently rewind this replica behind what it acked to its peers.
      const crdt::VersionVector before = unit->version();
      applied += unit->apply(ops);
      for (const crdt::Op& op : ops) {
        auto it = before.find(op.origin);
        const std::uint64_t have = it == before.end() ? 0 : it->second;
        if (op.seq > have) durable_->append_op(name, op);
      }
    } else {
      applied += unit->apply(ops);
    }
  }
  if (durable_ && applied > 0) durable_->sync();
  return applied;
}

bool ReplicaState::can_serve(const crdt::DocVersions& peer_has) const {
  static const crdt::VersionVector kNothing;
  for (const DocUnit& unit : units_) {
    auto it = peer_has.find(unit.name);
    if (!unit.doc->can_serve(it == peer_has.end() ? kNothing : it->second)) return false;
  }
  return true;
}

json::Value ReplicaState::bootstrap_state() const {
  json::Object out;
  for (const DocUnit& unit : units_) out.set(unit.name, unit.doc->bootstrap_state());
  return json::Value(std::move(out));
}

std::vector<crdt::Op> ReplicaState::ops_ahead_of(const DocUnit& unit,
                                                 const crdt::VersionVector& covered) const {
  if (!is_ahead(unit.doc->version(), covered)) return {};
  // changes_since() is only complete when nothing the payload lacks has
  // been compacted away. That always holds in a correct exchange: a
  // freshly-wiped rejoiner has an empty log, and a durable-recovered one
  // keeps its floor at the peer-acked horizon (the bootstrap-shaped
  // checkpoint carries the retained tail), which every peer's version —
  // and so every incoming payload's coverage — dominates. If it ever
  // fails, installing would silently destroy ops only this replica
  // holds; refuse loudly instead.
  if (!unit.doc->can_serve(covered)) {
    throw std::runtime_error("bootstrap: " + id_ + " holds ops for doc '" + unit.name +
                             "' below its compact floor that the payload lacks; "
                             "installing would destroy them");
  }
  return unit.doc->changes_since(covered);
}

void ReplicaState::restore_bootstrap(const json::Value& v) {
  for (const DocUnit& unit : units_) {
    const json::Value* state = v.find(unit.name);
    if (!state) continue;
    std::vector<crdt::Op> ahead;
    const json::Value* log = state->find("log");
    const json::Value* payload_version = log ? log->find("version") : nullptr;
    if (payload_version) {
      const crdt::VersionVector incoming = crdt::version_from_json(*payload_version);
      const crdt::VersionVector& local = unit.doc->version();
      // Stale-unit audit: a payload strictly behind this unit's local
      // version can only rewind it — installing would silently lose ops a
      // durable replica just recovered. This is normal in a multi-unit
      // message (a durably-recovered joiner can be ahead on one unit
      // while needing a bootstrap for another), so skip the unit: local
      // already dominates everything the payload holds.
      if (is_ahead(local, incoming) && !is_ahead(incoming, local)) continue;
      // Mixed case: we hold recovered ops the payload lacks (fsynced but
      // never shipped before the crash). Save them and re-apply after the
      // install instead of letting the overwrite destroy them.
      ahead = ops_ahead_of(unit, incoming);
    }
    unit.doc->restore_bootstrap(*state);
    if (!ahead.empty()) unit.doc->apply(ahead);
  }
  reseed_globals();
}

void ReplicaState::reseed_globals() {
  // Re-seed the interpreter's replicated globals from the restored doc:
  // tombstoned keys disappear, live keys take the replicated value.
  minijs::Environment& env = *service_->interpreter().globals();
  // Bind the filtered snapshot to a named value: as_object() returns a
  // reference into it, which a bare temporary would not keep alive for
  // the loop below.
  const json::Value filtered = filtered_globals();
  std::vector<std::string> replicated;
  for (const auto& entry : filtered.as_object()) replicated.push_back(entry.first);
  for (const std::string& name : replicated) {
    if (!globals_.find(name)) env.erase_local(util::intern(name));
  }
  for (const std::string& key : globals_.keys()) {
    env.define(key, minijs::JsValue::from_json(*globals_.find(key)));
  }
}

crdt::SyncMessage ReplicaState::collect_snapshot_bootstrap() const {
  crdt::SyncMessage message;
  message.kind = crdt::SyncKind::kSnapshot;
  message.from = id_;
  message.rejoin = true;
  json::Object snaps;
  for (const DocUnit& unit : units_) {
    auto it = checkpoint_.find(unit.name);
    if (durable_ && it != checkpoint_.end()) {
      // Cached durable checkpoint + the in-memory tail past it. The tail
      // is always servable: compact() bounds the floor at the checkpoint.
      snaps.set(unit.name, it->second.to_json());
      std::vector<crdt::Op> tail = unit.doc->changes_since(it->second.covered);
      if (!tail.empty()) message.ops[unit.name] = std::move(tail);
    } else {
      snaps.set(unit.name, unit.doc->cut_snapshot().to_json());
    }
    message.versions[unit.name] = unit.doc->version();
  }
  message.snapshot = json::Value(std::move(snaps));
  return message;
}

std::size_t ReplicaState::install_snapshot_message(const crdt::SyncMessage& message) {
  for (const DocUnit& unit : units_) {
    const json::Value* sv = message.snapshot.find(unit.name);
    if (!sv) continue;
    const crdt::Snapshot snap = crdt::Snapshot::from_json(*sv);  // digest-verified
    const crdt::VersionVector& local = unit.doc->version();
    // A cut strictly behind this unit's local version has nothing we lack
    // and installing it could only rewind; skip the unit (normal in a
    // multi-unit message — a durably-recovered joiner can be ahead on one
    // unit while needing the snapshot for another). The message's tail
    // ops for a skipped unit deduplicate harmlessly below.
    if (is_ahead(local, snap.covered) && !is_ahead(snap.covered, local)) continue;
    const std::vector<crdt::Op> ahead = ops_ahead_of(unit, snap.covered);
    unit.doc->install_snapshot(snap);
    if (!ahead.empty()) unit.doc->apply(ahead);
  }
  const std::size_t tail_ops = apply_message(message);
  reseed_globals();
  // Fold the adopted state into the durable log: a crash right after this
  // bootstrap must recover the post-bootstrap state, not the pre-crash one.
  if (durable_) checkpoint_durable();
  return tail_ops;
}

std::size_t ReplicaState::checkpoint_durable() {
  if (!durable_) return 0;
  checkpoint_.clear();
  // The durable record is bootstrap-shaped (state + retained op log +
  // compact floor), NOT a bare full-coverage snapshot. The difference
  // matters after a crash: a bare snapshot would bake this replica's own
  // not-yet-peer-acked ops below the recovered compact floor, and a later
  // snapshot rejoin could no longer extract them as ahead-ops — the
  // install would silently destroy acked-and-fsynced writes. Carrying the
  // retained log keeps the recovered floor at the peer-acked horizon, so
  // everything above it stays servable. The in-memory serving checkpoint
  // stays a plain wire-installable cut.
  std::map<std::string, crdt::Snapshot> records;
  for (const DocUnit& unit : units_) {
    crdt::Snapshot cut = unit.doc->cut_snapshot();
    crdt::Snapshot record;
    record.state = unit.doc->bootstrap_state();
    record.covered = unit.doc->version();
    record.lamport = cut.lamport;
    record.digest = crdt::Snapshot::content_digest(record.state);
    records[unit.name] = std::move(record);
    checkpoint_[unit.name] = std::move(cut);
  }
  return durable_->compact(records);
}

std::size_t ReplicaState::crash_reset_durable(const trace::Snapshot& snapshot) {
  crash_reset(snapshot);
  if (!durable_) return 0;
  // Rebirth from the durable log instead of bare checkpoint state: install
  // the latest durable snapshot per unit, then replay the fsynced op tail.
  // The epoch origin was already re-minted; recovered ops keep their old
  // origins, so nothing this life mints can collide with them.
  durability::OpLogStore::Recovered recovered = durable_->recover();
  std::size_t replayed = 0;
  for (const DocUnit& unit : units_) {
    auto snap_it = recovered.snapshots.find(unit.name);
    if (snap_it != recovered.snapshots.end()) {
      // Bootstrap-shaped checkpoint: the baked state, the op tail peers
      // had not yet acked, and the true compact floor come back as one
      // unit — the recovered replica can still serve (and carry across a
      // later snapshot install) every op above the peer-acked horizon.
      unit.doc->restore_bootstrap(snap_it->second.state);
      replayed += unit.doc->op_count();
    }
    auto ops_it = recovered.ops.find(unit.name);
    if (ops_it != recovered.ops.end() && !ops_it->second.empty()) {
      replayed += unit.doc->apply(ops_it->second);
    }
  }
  // The store's records are bootstrap payloads, not wire-installable
  // snapshots: re-cut the serving checkpoint from the recovered state.
  checkpoint_.clear();
  for (const DocUnit& unit : units_) checkpoint_[unit.name] = unit.doc->cut_snapshot();
  reseed_globals();
  return replayed;
}

crdt::DocVersions ReplicaState::versions() const {
  crdt::DocVersions out;
  for (const DocUnit& unit : units_) out[unit.name] = unit.doc->version();
  return out;
}

std::size_t ReplicaState::compact(const crdt::DocVersions& all_peers_acked) {
  static const crdt::VersionVector kNothing;
  std::size_t dropped = 0;
  for (const DocUnit& unit : units_) {
    auto it = all_peers_acked.find(unit.name);
    crdt::VersionVector acked = it == all_peers_acked.end() ? kNothing : it->second;
    if (durable_) {
      // Snapshot-gated horizon: in-memory compaction may not outrun the
      // last durable checkpoint, whatever the peers acked — the checkpoint
      // must be able to serve its own tail (snapshot bootstrap), and until
      // one exists nothing is durable enough to forget.
      auto snap_it = checkpoint_.find(unit.name);
      static const crdt::VersionVector kNoCheckpoint;
      const crdt::VersionVector& durable_to =
          snap_it == checkpoint_.end() ? kNoCheckpoint : snap_it->second.covered;
      acked = crdt::version_min(acked, durable_to);
    }
    dropped += unit.doc->compact(acked);
  }
  return dropped;
}

std::size_t ReplicaState::total_op_count() const {
  std::size_t total = 0;
  for (const DocUnit& unit : units_) total += unit.doc->op_count();
  return total;
}

std::string ReplicaState::state_digest() const {
  std::string joined;
  for (const DocUnit& unit : units_) {
    joined += unit.name;
    joined += '=';
    joined += unit.doc->state_digest();
    joined += ';';
  }
  return joined;
}

}  // namespace edgstr::runtime
