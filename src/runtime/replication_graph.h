// ReplicationGraph: endpoints + symmetric sync links, any topology.
//
// The seed's SyncEngine hardcoded a star (cloud master + N edges) with
// peer links bolted on as a special case. The graph subsumes all of it:
// a star is a root with leaf links, Legion-style gossip is an extra
// edge<->edge link, a full mesh is all-pairs links, and a hierarchical
// deployment (cloud -> regional aggregators -> edges) is a two-level tree.
// One sync round is the same everywhere: every endpoint harvests local
// changes, then every link syncs in both directions; op-based CRDTs make
// redundant gossip paths harmless (idempotent, commutative deliveries),
// and multi-hop topologies relay through each endpoint's own op log
// exactly like the seed's cloud did.
//
// Sync is two-phase digest anti-entropy. Each direction of a link opens
// with a compact version-vector digest of everything the advertiser
// holds; the responder answers with exactly the op ranges the digest
// proves missing (or nothing — a digest "hit"). Because the floor for
// every delta is the peer's own fresh self-report, an op that already
// reached a peer via another path is never shipped again, and a lost
// delta costs one digest round, not a full-backlog resend. peer_known_ is
// a self-healing ack cache that only gates log compaction. Replies are
// cut at the link's adaptive byte budget (BatchBudget) and resume over
// later rounds.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/replica_state.h"
#include "runtime/sync_link.h"
#include "util/metrics.h"

namespace edgstr::runtime {

class ReplicationGraph {
 public:
  explicit ReplicationGraph(netsim::Network& network) : network_(network) {}

  /// Registers an endpoint; its id() must be unique and is the host name
  /// used on the simulated network.
  ReplicaState& add_endpoint(std::shared_ptr<ReplicaState> endpoint);

  /// Connects two registered endpoints. The hosts must be connected in
  /// the Network. Duplicate links and self-links are rejected.
  SyncLink& add_link(const std::string& a, const std::string& b);

  std::size_t endpoint_count() const { return endpoints_.size(); }
  std::size_t link_count() const { return links_.size(); }
  /// Link endpoint pairs in creation order (for fault injectors that cut
  /// or degrade individual sync links).
  std::vector<std::pair<std::string, std::string>> link_ids() const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const GraphLink& link : links_) out.emplace_back(link.a, link.b);
    return out;
  }
  bool has_endpoint(const std::string& id) const { return index_.count(id) > 0; }
  /// Endpoint by id; throws std::out_of_range when absent.
  ReplicaState& endpoint(const std::string& id) const;
  /// Endpoints in registration order.
  const std::vector<std::shared_ptr<ReplicaState>>& endpoints() const { return endpoints_; }

  /// One synchronous round: record local changes at every endpoint, then
  /// exchange deltas over every link in both directions. Deliveries land
  /// when the caller drains the network clock. Down endpoints are skipped;
  /// recovering endpoints attempt a rejoin instead of regular exchanges.
  void tick_round();

  // --- Crash / restart lifecycle (fail-stop with volatile state) ---------
  //
  // crash() marks an endpoint down and forgets all connection state with
  // its neighbors (both directions of peer_known_), because that knowledge
  // lived in the crashed process. The caller is responsible for wiping the
  // replica's own volatile state (ReplicaState::crash_reset). restart()
  // flips it to *recovering*: it takes no part in regular sync until a
  // rejoin completes — either a delta from a neighbor that can still serve
  // its (reset) version, or a full bootstrap_state() transfer when every
  // candidate has compacted past it. Rejoin payloads travel over the
  // simulated network, so partitions, loss, and faults delay them like any
  // other traffic; tick_round() retries until one lands.

  /// Marks an endpoint crashed. Safe to call at any simulated moment;
  /// in-flight deliveries to it are dropped via an incarnation check.
  void crash(const std::string& id);
  /// Brings a crashed endpoint back as *recovering* (not yet serving).
  void restart(const std::string& id);
  bool endpoint_up(const std::string& id) const { return down_.count(id) == 0; }
  bool recovering(const std::string& id) const { return recovering_.count(id) > 0; }
  /// Bumped on every crash; deliveries from a previous life are dropped.
  std::uint64_t incarnation(const std::string& id) const;

  /// Fires when a recovering endpoint completes its rejoin (the deployment
  /// uses this to flip the host node back to active service).
  void set_rejoin_listener(std::function<void(const std::string&)> cb) {
    on_rejoined_ = std::move(cb);
  }

  /// Snapshot bootstrap negotiation (0 = off, the default): when a rejoin
  /// digest arrives, the responder compares the advertised op-count gap
  /// against this threshold. At or past it — or whenever it cannot serve a
  /// delta at all — it ships a kSnapshot message (per-unit consistent
  /// state snapshots + tail ops) instead of op replay or a full
  /// bootstrap_state() transfer. Off, behavior (and every exported byte)
  /// is identical to the pre-snapshot protocol.
  void set_snapshot_bootstrap(std::uint64_t min_gap_ops) { snapshot_min_gap_ = min_gap_ops; }
  std::uint64_t snapshot_bootstrap() const { return snapshot_min_gap_; }

  /// Deliberate-regression knob for the simulation harness: when enabled,
  /// every cross-host session handoff fails immediately (as if the flush
  /// path were broken). Pure session-guarantee lapse — replication itself
  /// stays healthy, so convergence invariants pass and only the SLO
  /// watchdog's handoff-failure-rate rule catches it.
  void set_handoff_fault(bool enabled) { handoff_fault_ = enabled; }

  /// The one definition of convergence: no endpoint is still rejoining,
  /// and every up endpoint's observable state (per-unit state hashes, see
  /// ReplicatedDoc::state_hash) equals the first up endpoint's. Crashed
  /// endpoints are excluded — they are expected to be behind; a recovering
  /// one is not serving yet, so the graph has not converged until its
  /// rejoin lands.
  bool converged() const;

  /// Session handoff flush: synchronously drives `from`'s current state to
  /// `to` so a client migrating between proxies keeps read-your-writes.
  /// The flush travels hop-by-hop along a BFS path of live, unpartitioned
  /// links (never endpoint-to-endpoint shortcuts — compaction horizons are
  /// only safe against *direct-neighbor* acks), running one targeted digest
  /// exchange per hop and draining the network clock until the hop's
  /// versions cover everything `from` held at flush start, retrying each
  /// hop up to `max_attempts` times against message loss. Returns false
  /// when `from` is unavailable, no live path exists, or a hop starves its
  /// retries — the caller decides whether the client's session guarantee
  /// lapses (mirroring the crash-lapse rule for acked writes).
  ///
  /// Drives the shared network clock to completion between hops, so it
  /// must only be called from drained-clock drivers (sim rounds, benches
  /// with start_sync=false), never mid-flight.
  bool flush_session(const std::string& from, const std::string& to,
                     std::size_t max_attempts = 8);

  /// Log compaction: every endpoint drops the ops all of its *direct*
  /// neighbors have acknowledged (from the acked version vectors sync
  /// messages carry). Safe anywhere in any topology — a behind neighbor
  /// keeps its own copies, and multi-hop peers are served by the relay
  /// in between, which compacts only against its own neighbors. Returns
  /// total ops dropped.
  std::size_t compact_logs();

  /// Total bytes / messages across all links since the last reset.
  std::uint64_t total_sync_bytes() const;
  std::uint64_t sync_messages() const;
  void reset_traffic_stats();

  /// Sync instrumentation: rounds, per-endpoint/per-doc ops and bytes,
  /// wire bytes by message kind, staleness.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches the deployment's telemetry plane to the graph and every
  /// current and future link: each round becomes a "sync.round" span whose
  /// children are the per-link transit/apply spans, round size/duration
  /// land in `sync.round.*` histograms, and per-endpoint staleness gauges
  /// (`sync.staleness.*`) are sampled every round.
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  struct GraphLink {
    std::string a;
    std::string b;
    std::unique_ptr<SyncLink> link;
  };

  netsim::Network& network_;
  std::vector<std::shared_ptr<ReplicaState>> endpoints_;
  std::map<std::string, std::size_t> index_;  ///< id -> endpoints_ index
  std::vector<GraphLink> links_;
  /// What each directed peer provably holds: key "holder<-peer" is the
  /// last version set `peer` advertised (ack or digest) that reached
  /// `holder`. Purely a compaction gate, refreshed by every digest —
  /// never a correctness input.
  std::map<std::string, crdt::DocVersions> peer_known_;
  util::MetricsRegistry metrics_;

  std::set<std::string> down_;        ///< crashed endpoints
  std::set<std::string> recovering_;  ///< restarted, rejoin not yet complete
  std::map<std::string, std::uint64_t> incarnation_;
  bool handoff_fault_ = false;
  std::uint64_t snapshot_min_gap_ = 0;  ///< 0 = snapshot bootstrap off
  std::size_t handoff_fail_run_ = 0;  ///< consecutive failed flushes (SLO signal)
  /// Per-recovering-endpoint bootstrap accounting (snapshot negotiation
  /// only): sim time the restart landed, bytes and ops its rejoin cost so
  /// far. Folded into bootstrap.{snapshot,replay}.* at rejoin completion.
  std::map<std::string, double> recovery_started_;
  std::map<std::string, std::uint64_t> rejoin_bytes_;
  std::map<std::string, std::uint64_t> rejoin_ops_;
  std::function<void(const std::string&)> on_rejoined_;

  obs::Telemetry* telemetry_ = nullptr;
  obs::SpanId last_round_span_ = obs::kNoSpan;  ///< previous round, for duration
  std::map<std::string, double> last_converged_;  ///< endpoint -> sim time
  /// Bytes/ops attributed to the round in flight. Digest replies go out
  /// *during* the clock drain — after tick_round() returns — so a round's
  /// totals are only final when the next round starts (the same deferral
  /// last_round_span_ uses for durations).
  std::uint64_t pending_round_bytes_ = 0;
  std::size_t pending_round_ops_ = 0;
  bool round_stats_pending_ = false;
  std::uint64_t round_number_ = 0;  ///< tick counter; picks digest parity

  /// Digest phase 1: advertise `advertiser`'s versions to `responder`.
  void start_digest_exchange(ReplicaState& advertiser, ReplicaState& responder, SyncLink& link,
                             const obs::TraceContext& round_ctx, obs::SpanId round_span,
                             bool rejoin = false);
  /// Digest phase 2 (runs at digest delivery): answer with exactly the
  /// missing ranges, cut at the link budget; or bootstrap a rejoiner the
  /// responder has compacted past.
  void serve_digest(ReplicaState& advertiser, ReplicaState& responder, SyncLink& link,
                    const crdt::SyncMessage& digest, std::uint64_t advertiser_inc,
                    const obs::TraceContext& round_ctx, obs::SpanId round_span);
  /// Delivery of a digest reply (op delta or bootstrap) back at the
  /// advertiser: apply/restore, refresh the ack cache, finish a rejoin.
  void deliver_reply(ReplicaState& advertiser, const crdt::SyncMessage& delivered,
                     std::uint64_t advertiser_inc, const std::string& responder_id,
                     const obs::TraceContext& round_ctx, obs::SpanId round_span);
  /// Telemetry for an op message just applied at `receiver`: the apply
  /// span plus per-op provenance links.
  void note_apply(ReplicaState& receiver, const crdt::SyncMessage& delivered,
                  const obs::TraceContext& round_ctx, obs::SpanId round_span,
                  const char* span_name);
  /// Flushes the previous round's byte/op totals into span args and
  /// histograms once its deliveries have drained.
  void finalize_round_stats();
  void attempt_rejoin(ReplicaState& joiner, const obs::TraceContext& round_ctx,
                      obs::SpanId round_span);
  /// How a rejoin was completed; picks the sync.rejoins.* counter and the
  /// bootstrap.{snapshot,replay}.* bucket under snapshot negotiation.
  enum class RejoinVia { kDelta, kBootstrap, kSnapshot };
  void complete_rejoin(ReplicaState& joiner, RejoinVia via);
  /// Per-endpoint version-vector lag and time-since-converged vs the first
  /// endpoint (the same state comparison converged() uses); gauges +
  /// aggregate histograms. No-op without telemetry.
  void sample_staleness();
  /// Attached time-series sink, or nullptr (capture off / no telemetry).
  obs::TimeSeries* timeseries() const {
    return telemetry_ ? telemetry_->timeseries() : nullptr;
  }
  /// One flight-recorder event stamped with the simulated clock; no-op
  /// when no recorder is attached.
  void flight(const std::string& host, const std::string& kind, std::string detail) const;
};

/// Topology helpers: links every endpoint in `leaves` to `root` (star),
/// or every pair in `ids` to each other (full mesh). Endpoints must
/// already be registered and network-connected.
void wire_star(ReplicationGraph& graph, const std::string& root,
               const std::vector<std::string>& leaves);
void wire_mesh(ReplicationGraph& graph, const std::vector<std::string>& ids);

}  // namespace edgstr::runtime
