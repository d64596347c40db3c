// CRDT-JSON: replicated key/value document for "global variables" (§III-G).
//
// Each replicated global variable is one top-level key. Local state changes
// become LWW put/del ops in the embedded OpLog; the automerge-style API —
// initialize / getChanges / applyChanges — is what the generated replica
// code calls.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "crdt/change.h"
#include "crdt/lww.h"
#include "crdt/replicated_doc.h"

namespace edgstr::crdt {

class CrdtJson : public ReplicatedDoc {
 public:
  explicit CrdtJson(std::string replica_id) : log_(std::move(replica_id)) {}

  /// Hook returning the live local document (e.g. the interpreter's
  /// replicated globals); record_local() diffs against it via sync_from().
  void set_local_source(std::function<json::Value()> source) { source_ = std::move(source); }

  /// Hook invoked after apply() with the applied ops, so the owner can
  /// materialize remote writes back into the live state (e.g. interpreter
  /// globals). Not called for the manual applyChanges() path.
  void set_apply_hook(std::function<void(const std::vector<Op>&)> hook) {
    apply_hook_ = std::move(hook);
  }

  const std::string& replica() const { return log_.replica(); }

  /// Seeds the document with a shared snapshot (an object of key->value).
  /// All replicas must initialize from the same snapshot; the baseline is
  /// not itself replicated as ops. Re-entrant: calling it again first
  /// discards all CRDT state (crash/rebirth).
  void initialize(const json::Value& snapshot);

  /// Local write/remove; generates one op.
  void set(const std::string& key, json::Value value);
  void remove(const std::string& key);

  std::optional<json::Value> get(const std::string& key) const { return state_.get(key); }
  /// The live value for a key, or nullptr, without copying it (see
  /// LwwMap::find).
  const json::Value* find(const std::string& key) const { return state_.find(key); }
  std::vector<std::string> keys() const { return state_.keys(); }

  /// Diffs `current` (an object of key->value) against the replicated
  /// state and emits set/remove ops for every difference. This is the hook
  /// the generated service code calls after each execution to connect
  /// "service state changes to CRDT update operations".
  /// Returns the number of ops generated.
  std::size_t sync_from(const json::Value& current);

  /// Ops the peer lacks.
  std::vector<Op> getChanges(const VersionVector& known) const {
    return log_.changes_since(known);
  }
  /// Applies remote ops (idempotent); returns how many were new.
  std::size_t applyChanges(const std::vector<Op>& ops);

  const VersionVector& version() const override { return log_.version(); }

  /// Drops ops all peers have acknowledged (see OpLog::compact).
  std::size_t compact(const VersionVector& acked) override { return log_.compact(acked); }
  bool can_serve(const VersionVector& known) const override { return log_.can_serve(known); }
  std::size_t op_count() const override { return log_.size(); }

  // ReplicatedDoc life cycle (the generic sync path).
  std::size_t record_local() override { return source_ ? sync_from(source_()) : 0; }
  std::vector<Op> changes_since(const VersionVector& known) const override {
    return getChanges(known);
  }
  std::size_t apply(const std::vector<Op>& ops) override {
    const std::size_t applied = applyChanges(ops);
    if (apply_hook_) apply_hook_(ops);
    return applied;
  }
  std::string state_digest() const override { return state_.digest(); }
  std::uint64_t state_hash() const override { return state_.state_hash(); }
  json::Value bootstrap_state() const override;
  void restore_bootstrap(const json::Value& v) override;
  Snapshot cut_snapshot() const override;
  void install_snapshot(const Snapshot& snap) override;
  void set_origin(const std::string& origin) override { log_.set_origin(origin); }

  /// Live document as a JSON object.
  json::Value materialize() const;

 private:
  OpLog log_;
  LwwMap state_;
  std::function<json::Value()> source_;
  std::function<void(const std::vector<Op>&)> apply_hook_;

  void apply_payload(const Op& op);
};

}  // namespace edgstr::crdt
