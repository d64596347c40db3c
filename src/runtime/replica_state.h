// One endpoint's replicated state: a set of named ReplicatedDoc units
// bound to a service (§III-F, §III-G).
//
// The standard service carries three units — "tables" (CRDT-Table),
// "files" (CRDT-Files), "globals" (CRDT-JSON) — but every sync operation
// below is a single loop over the unit vector, so endpoints with more (or
// different) doc units need no new sync code.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <map>

#include "crdt/files.h"
#include "crdt/json_doc.h"
#include "crdt/snapshot.h"
#include "crdt/table.h"
#include "crdt/wire.h"
#include "durability/oplog_store.h"
#include "obs/telemetry.h"
#include "runtime/service_runtime.h"
#include "util/intern.h"

namespace edgstr::runtime {

/// A named document unit registered with a replica.
struct DocUnit {
  std::string name;
  crdt::ReplicatedDoc* doc;
};

class ReplicaState {
 public:
  /// `replicated_globals` filters which globals sync (the analysis'
  /// synchronization set); empty set = none, {"*"} = all.
  ReplicaState(std::string replica_id, ServiceRuntime* service,
               std::set<std::string> replicated_files, std::set<std::string> replicated_globals);

  const std::string& id() const { return id_; }

  /// Edge path: restore the shared snapshot then key baselines.
  void initialize_from_snapshot(const trace::Snapshot& snapshot);
  /// Cloud path: key the live state as the baseline.
  void attach_existing();

  /// Crash: every volatile CRDT structure (op logs, LWW state, version
  /// vectors) is lost; the replica is reborn from the shared checkpoint as
  /// if freshly deployed. The replica *id* survives (it is the network
  /// address), but the *op origin* does not: each rebirth mints future ops
  /// under an epoch-suffixed origin ("edge1~2"), because the reborn seq
  /// counter restarts from the recovered state and any pre-crash op that
  /// survived only at a third party would otherwise collide with a fresh
  /// (origin, seq) — a split-brain that version vectors cannot see.
  void crash_reset(const trace::Snapshot& snapshot);

  /// Attaches a durable op log. While attached, every op harvested by
  /// record_local() or adopted by apply_message() is appended and fsynced
  /// before control returns — an acked write is a durable write — and the
  /// in-memory compaction horizon is bounded by the last durable
  /// checkpoint instead of peer acks (the checkpoint must be able to serve
  /// its own tail). The store outlives this replica; pass nullptr to detach.
  void attach_durable(durability::OpLogStore* store) { durable_ = store; }
  durability::OpLogStore* durable() const { return durable_; }

  /// Durable checkpoint: cuts a consistent snapshot of every unit, writes
  /// the snapshots to the store, and compacts the store down to (snapshots
  /// + ops past them). The cut also becomes the serving checkpoint for
  /// snapshot bootstrap and the in-memory compaction bound. Returns the
  /// number of op records dropped from the store; no-op without a store.
  std::size_t checkpoint_durable();

  /// Crash rebirth with recovery: the volatile wipe and epoch-origin mint
  /// of crash_reset(), then — when a durable log is attached — replay of
  /// the recovered image (latest snapshot per unit + the durable op tail)
  /// on top of the checkpoint baseline. What was fsynced survives the
  /// crash; everything else is lost, exactly like real power loss.
  /// Returns the number of ops replayed from the durable log.
  std::size_t crash_reset_durable(const trace::Snapshot& snapshot);

  /// Attaches the deployment's telemetry plane: ops harvested while a
  /// trace context is active are tagged with the client trace that
  /// produced them (see Telemetry::set_active_context).
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Harvests local state changes into CRDT ops (call after executions).
  std::size_t record_local();

  /// Ops the peer lacks, per doc unit, plus our version vectors. Throws
  /// std::runtime_error if any unit has compacted past what the peer needs
  /// (the peer must bootstrap from a state snapshot, not a partial delta).
  crdt::SyncMessage collect_changes(const crdt::DocVersions& peer_has) const;

  /// Budgeted variant: cuts the delta at ~`budget_bytes` of op payload, on
  /// whole-op prefix boundaries (always at least one op, so a tiny budget
  /// still makes progress). A cut message has `truncated` set and its
  /// `versions` capped to what the included ops actually deliver — the
  /// receiver's ack floor never claims undelivered ops, and its next
  /// digest resumes the remainder automatically. Units past the cut are
  /// omitted from `versions` entirely.
  crdt::SyncMessage collect_changes(const crdt::DocVersions& peer_has,
                                    std::uint64_t budget_bytes) const;

  /// Applies a sync message; returns number of new ops. Doc units the
  /// message does not mention are untouched; unknown units are rejected.
  std::size_t apply_message(const crdt::SyncMessage& message);

  /// This replica's version vector per doc unit.
  crdt::DocVersions versions() const;

  /// True when every unit can serve a delta to a peer at `peer_has`
  /// (i.e. collect_changes(peer_has) would not throw).
  bool can_serve(const crdt::DocVersions& peer_has) const;

  /// Full CRDT state of every unit — what a rejoining replica that is
  /// behind our compaction horizon receives instead of a delta.
  json::Value bootstrap_state() const;
  /// Installs a peer's bootstrap_state() and re-seeds the interpreter's
  /// replicated globals. Guarded per unit: a payload whose version vector
  /// is *strictly behind* a unit's local version is skipped — overwriting
  /// would silently lose ops a durable replica just recovered, and local
  /// state already dominates it (normal in a multi-unit message where the
  /// joiner is ahead on one unit but needs the payload for another). When
  /// local state is ahead only on components the payload lacks
  /// (recovered-but-never-shipped ops), those ops are saved and
  /// re-applied after the install instead of being destroyed.
  void restore_bootstrap(const json::Value& v);

  /// Builds a kSnapshot bootstrap: per-unit snapshots plus tail ops. With
  /// a durable checkpoint, ships the cached checkpoint + the in-memory
  /// tail past it (the compaction bound guarantees the tail is servable);
  /// otherwise cuts fresh full-coverage snapshots with an empty tail.
  crdt::SyncMessage collect_snapshot_bootstrap() const;

  /// Installs a kSnapshot message: per-unit stale-cut skipping and
  /// ahead-op preservation as in restore_bootstrap(), then the tail ops,
  /// then a globals re-seed. With a durable log attached the merged result is
  /// checkpointed so a follow-up crash recovers the post-bootstrap state.
  /// Returns the number of tail ops applied.
  std::size_t install_snapshot_message(const crdt::SyncMessage& message);

  /// Compacts every unit's op log against the version every direct peer
  /// has acknowledged. Returns the number of ops dropped.
  std::size_t compact(const crdt::DocVersions& all_peers_acked);
  std::size_t total_op_count() const;

  /// Joined digest over every unit, in registration order, with unit names
  /// baked in: two replicas with the same unit set are converged iff their
  /// joined digests are equal. The independent oracle for tests and the
  /// sim's end-of-run check; ReplicationGraph::converged() compares the
  /// same per-unit digests without joining them.
  std::string state_digest() const;

  /// Registered units, in registration order.
  const std::vector<DocUnit>& docs() const { return units_; }
  /// Unit lookup by name; nullptr when absent.
  crdt::ReplicatedDoc* doc(const std::string& name) const;

  crdt::CrdtTable& tables() { return tables_; }
  crdt::CrdtFiles& files() { return files_; }
  crdt::CrdtJson& globals() { return globals_; }
  ServiceRuntime& service() { return *service_; }

  /// The replicated globals as the globals unit harvests them: a name-sorted
  /// JSON object of the live, non-callable globals named at construction
  /// (every one for "*").
  json::Value filtered_globals();

 private:
  std::string id_;
  ServiceRuntime* service_;
  crdt::CrdtTable tables_;
  crdt::CrdtFiles files_;
  crdt::CrdtJson globals_;
  std::vector<DocUnit> units_;
  std::set<std::string> replicated_files_;
  std::set<std::string> replicated_globals_;
  /// replicated_globals_ interned, in the set's (name) order; empty for "*".
  std::vector<util::Symbol> replicated_global_syms_;
  obs::Telemetry* telemetry_ = nullptr;
  std::uint64_t rebirths_ = 0;  ///< crash count; suffixes the op origin
  durability::OpLogStore* durable_ = nullptr;
  /// Last durable checkpoint per unit: the snapshot-bootstrap serving
  /// image and the in-memory compaction bound.
  std::map<std::string, crdt::Snapshot> checkpoint_;

  void materialize_globals(const std::vector<crdt::Op>& applied);
  void reseed_globals();
  /// Ops past `covered` that an install would destroy; throws when the
  /// unit cannot reconstruct them (already compacted past `covered`) —
  /// installing anyway would silently destroy recovered acked writes.
  std::vector<crdt::Op> ops_ahead_of(const DocUnit& unit,
                                     const crdt::VersionVector& covered) const;
};

}  // namespace edgstr::runtime
