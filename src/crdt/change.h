// Change (op) log shared by the CRDT document types.
//
// EdgStr's CRDT structures expose the automerge-style API the paper names
// (§III-G): initialize / getChanges / applyChanges. Concretely, every local
// mutation appends an Op — (origin replica, per-replica sequence number,
// Lamport stamp, JSON payload) — and getChanges(since) returns the ops a
// peer has not seen according to its version vector. Ops are designed to be
// commutative (LWW stamps) and idempotent (dedup by
// origin+seq), which is what makes the merge conflict-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json/value.h"

namespace edgstr::crdt {

/// Lamport timestamp with replica tie-break: total order on events.
struct Stamp {
  std::uint64_t counter = 0;
  std::string replica;

  bool operator<(const Stamp& other) const {
    if (counter != other.counter) return counter < other.counter;
    return replica < other.replica;
  }
  bool operator==(const Stamp& other) const {
    return counter == other.counter && replica == other.replica;
  }
  json::Value to_json() const {
    return json::Value::object({{"c", static_cast<double>(counter)}, {"r", replica}});
  }
  static Stamp from_json(const json::Value& v) {
    return Stamp{static_cast<std::uint64_t>(v["c"].as_number()), v["r"].as_string()};
  }
};

/// One replicated operation. The payload is immutable and shared: every
/// copy of an Op — the log's, a changes_since() result, a SyncMessage's,
/// and an LwwMap entry aliasing into it (share()) — points at one
/// json::Value that nobody can change, which also caches its wire size.
/// Copying an Op copies two short strings and bumps a reference count.
struct Op {
  std::string origin;      ///< replica that generated the op
  std::uint64_t seq = 0;   ///< contiguous per-origin sequence number
  Stamp stamp;             ///< Lamport stamp for LWW resolution

  /// CRDT-type-specific content (null until set_payload()).
  const json::Value& payload() const;
  /// Replaces the payload with a fresh shared one.
  void set_payload(json::Value payload);
  /// Shares `part` — payload() itself or a value inside it — without
  /// copying: the pointer keeps the whole payload alive.
  std::shared_ptr<const json::Value> share(const json::Value& part) const {
    return std::shared_ptr<const json::Value>(payload_, &part);
  }

  json::Value to_json() const;
  static Op from_json(const json::Value& v);

  /// to_json().wire_size() — the self-describing per-op size that sync
  /// byte accounting charges for every shipped op — summed from the fixed
  /// framing and the parts' sizes, never by building the JSON. The
  /// payload's share is computed once and cached in the shared payload.
  std::uint64_t wire_size() const;

 private:
  struct Payload {
    json::Value value;
    /// value.wire_size(), or 0 until first asked. Every copy of the Op
    /// shares this cache, and racing first askers store the same number,
    /// so a shared const payload stays safe to size from any thread.
    mutable std::atomic<std::size_t> wire_size{0};
  };
  std::shared_ptr<const Payload> payload_;
};

/// Version vector: highest contiguous seq applied per origin replica.
using VersionVector = std::map<std::string, std::uint64_t>;

json::Value version_to_json(const VersionVector& version);
VersionVector version_from_json(const json::Value& v);

/// Op storage + dedup + delta computation, embedded by each CRDT type.
class OpLog {
 public:
  explicit OpLog(std::string replica_id) : replica_(std::move(replica_id)) {}

  const std::string& replica() const { return replica_; }

  /// Re-identifies the origin future local ops are minted under (the
  /// version vector, log, and Lamport clock are untouched). Used when a
  /// replica is reborn after a crash: its seq counter restarts from the
  /// recovered state, so minting under the *old* origin would collide with
  /// any pre-crash op that survived only at a third party — two different
  /// ops sharing an (origin, seq) identity, invisible to version vectors.
  void set_origin(std::string origin) { replica_ = std::move(origin); }

  /// Creates a new local op with the next seq and a fresh Lamport stamp.
  /// Does not record it.
  Op make_local(json::Value payload);

  /// Records an op (local or remote). Returns false when it was already
  /// known (idempotent delivery). The log shares the op's payload.
  bool record(const Op& op);

  /// True if (origin, seq) has been recorded.
  bool seen(const std::string& origin, std::uint64_t seq) const;

  /// Ops the peer with `known` lacks, in log order (so each origin's ops
  /// come in ascending, gap-free seq order). O(Δ log Δ) in the ops
  /// returned plus O(origins): each origin's suffix past known[origin] is
  /// found by binary search in the per-origin index, never by a scan.
  std::vector<Op> changes_since(const VersionVector& known) const;

  /// Drops ops every peer has already acknowledged: an op (origin, seq) is
  /// removable once seq <= acked[origin]. The CRDT state is unaffected —
  /// compaction only bounds the log's memory. After compacting past some
  /// version, changes_since() can no longer serve peers *behind* that
  /// version (a brand-new replica must bootstrap from a state snapshot
  /// instead); compact_floor() reports the serving horizon. Returns the
  /// number of ops removed.
  std::size_t compact(const VersionVector& acked);

  /// Per-origin floor below which ops have been compacted away.
  const VersionVector& compact_floor() const { return floor_; }

  /// True if changes_since(known) can fully serve a peer at `known`.
  bool can_serve(const VersionVector& known) const;

  /// This log's own version vector.
  const VersionVector& version() const { return version_; }

  const std::vector<Op>& all_ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }

  /// Advances the Lamport clock past an observed stamp.
  void observe(const Stamp& stamp);

  /// Current Lamport clock value (snapshots carry it so an installing
  /// replica resumes stamping past everything the snapshot covers).
  std::uint64_t lamport() const { return lamport_; }

  /// Adopts a snapshot horizon: drops every retained op and sets both the
  /// version vector and the compaction floor to `covered` — the snapshot
  /// state stands in for all ops at or below it, so this log can apply (and
  /// serve) ops strictly past `covered` but can never replay history below
  /// it. The Lamport clock only ratchets forward; identity is untouched.
  void reset_to(const VersionVector& covered, std::uint64_t lamport);

  /// Serializes ops + version + floor + lamport (the "replica" field is
  /// provenance only; restore() keeps this log's own identity so a peer's
  /// bootstrap payload cannot hijack the local origin). restore() throws
  /// std::invalid_argument when an origin's ops are not in ascending seq
  /// order, which no to_json() produces.
  json::Value to_json() const;
  void restore(const json::Value& v);

 private:
  std::string replica_;
  std::vector<Op> ops_;
  /// Per origin, the ascending positions in ops_ of its ops; their seqs
  /// ascend too. record(), compact(), reset_to() and restore() keep it.
  std::map<std::string, std::vector<std::size_t>> by_origin_;
  VersionVector version_;
  VersionVector floor_;  ///< highest compacted seq per origin
  std::uint64_t lamport_ = 0;

  void rebuild_index();
};

/// Pointwise minimum of version vectors (missing components count as 0).
VersionVector version_min(const VersionVector& a, const VersionVector& b);

}  // namespace edgstr::crdt
