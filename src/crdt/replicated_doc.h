// ReplicatedDoc: the common interface of EdgStr's CRDT document types.
//
// CRDT-Table, CRDT-Files, and CRDT-JSON all follow the same automerge-style
// life cycle — harvest local state changes into ops, ship the ops a peer
// lacks, apply remote ops idempotently, compact acknowledged ops — and the
// replication plane only ever needs that life cycle. ReplicaState holds a
// vector of named ReplicatedDoc units instead of a hardcoded triplet, so
// adding a fourth document type (a replicated metrics doc, per-service doc
// sets, ...) is one registration line, not another copy of the sync logic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crdt/change.h"
#include "crdt/snapshot.h"

namespace edgstr::crdt {

class ReplicatedDoc {
 public:
  virtual ~ReplicatedDoc() = default;

  /// Harvests local state changes into CRDT ops (call after executions).
  /// Returns the number of ops generated.
  virtual std::size_t record_local() = 0;

  /// Ops the peer with `known` lacks, in log order.
  virtual std::vector<Op> changes_since(const VersionVector& known) const = 0;

  /// Applies remote ops (idempotent); returns how many were new.
  virtual std::size_t apply(const std::vector<Op>& ops) = 0;

  /// This document's version vector.
  virtual const VersionVector& version() const = 0;

  /// Drops ops every peer has acknowledged (see OpLog::compact).
  virtual std::size_t compact(const VersionVector& acked) = 0;

  /// True if changes_since(known) can fully serve a peer at `known` — false
  /// once compaction has dropped ops the peer still needs.
  virtual bool can_serve(const VersionVector& known) const = 0;

  /// Ops currently retained in the log.
  virtual std::size_t op_count() const = 0;

  /// Deterministic fingerprint of the observable state: two replicas of the
  /// same doc are converged iff their digests are equal. Materializes the
  /// whole state, so it is the independent oracle (sim invariants, tests,
  /// end-of-run digests), never a per-round serving check.
  virtual std::string state_digest() const = 0;

  /// Order-independent 64-bit hash of the same observable state, kept
  /// current in O(changed entries) on every mutation: equal state_digest()
  /// strings always give equal hashes (and distinct ones distinct hashes
  /// barring a 2^-64 collision). What the replication plane compares.
  virtual std::uint64_t state_hash() const = 0;

  /// Full replicated-state serialization for peer bootstrap: the CRDT state
  /// plus the retained op log, version vector, and compaction floor —
  /// everything a replica that compaction can no longer serve with a delta
  /// needs to adopt this doc's state. NOT the materialized view: restoring
  /// it preserves global row/path/key identities, so digests match.
  virtual json::Value bootstrap_state() const = 0;

  /// Adopts a bootstrap payload produced by a peer's bootstrap_state() and
  /// re-materializes the local view. Only safe on a freshly re-initialized
  /// replica (it overwrites, it does not merge); the log keeps this
  /// replica's own identity, never the serializing peer's.
  virtual void restore_bootstrap(const json::Value& v) = 0;

  /// Cuts a consistent state snapshot: the observable CRDT state WITHOUT
  /// the retained op log, covering this doc's full version vector. Far
  /// smaller than bootstrap_state() once history outgrows live state; a
  /// peer installs it and then needs only the ops past `covered`.
  virtual Snapshot cut_snapshot() const = 0;

  /// Adopts a peer's snapshot wholesale: overwrites the CRDT state,
  /// re-materializes the local view, and resets the op log to the covered
  /// version (see OpLog::reset_to). Overwrites, does not merge — callers
  /// that may hold ops past the snapshot (a durable replica that recovered
  /// its log) must save and re-apply them around the install.
  virtual void install_snapshot(const Snapshot& snap) = 0;

  /// Re-identifies the origin future local ops are minted under (see
  /// OpLog::set_origin). A replica reborn after a crash must mint under a
  /// fresh origin or risk silent (origin, seq) collisions with its past
  /// life's surviving ops.
  virtual void set_origin(const std::string& origin) = 0;
};

}  // namespace edgstr::crdt
