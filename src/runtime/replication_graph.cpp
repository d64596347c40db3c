#include "runtime/replication_graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace edgstr::runtime {

ReplicaState& ReplicationGraph::add_endpoint(std::shared_ptr<ReplicaState> endpoint) {
  if (!endpoint) throw std::invalid_argument("ReplicationGraph: null endpoint");
  if (index_.count(endpoint->id())) {
    throw std::invalid_argument("ReplicationGraph: duplicate endpoint '" + endpoint->id() + "'");
  }
  index_[endpoint->id()] = endpoints_.size();
  endpoints_.push_back(std::move(endpoint));
  return *endpoints_.back();
}

SyncLink& ReplicationGraph::add_link(const std::string& a, const std::string& b) {
  if (a == b) throw std::invalid_argument("ReplicationGraph: self-link on '" + a + "'");
  if (!has_endpoint(a) || !has_endpoint(b)) {
    throw std::invalid_argument("ReplicationGraph: link endpoints must be registered (" + a +
                                " <-> " + b + ")");
  }
  for (const GraphLink& existing : links_) {
    if ((existing.a == a && existing.b == b) || (existing.a == b && existing.b == a)) {
      throw std::invalid_argument("ReplicationGraph: duplicate link " + a + " <-> " + b);
    }
  }
  links_.push_back(GraphLink{a, b, std::make_unique<SyncLink>(network_, a, b, &metrics_)});
  links_.back().link->set_telemetry(telemetry_);
  return *links_.back().link;
}

void ReplicationGraph::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  for (const GraphLink& link : links_) link.link->set_telemetry(telemetry);
}

ReplicaState& ReplicationGraph::endpoint(const std::string& id) const {
  auto it = index_.find(id);
  if (it == index_.end()) throw std::out_of_range("ReplicationGraph: no endpoint '" + id + "'");
  return *endpoints_[it->second];
}

namespace {

/// Pointwise minimum across doc units; a doc missing on either side is
/// omitted (reads as "nothing known", which is always safe).
crdt::DocVersions doc_versions_min(const crdt::DocVersions& a, const crdt::DocVersions& b) {
  crdt::DocVersions out;
  for (const auto& [doc, versions] : a) {
    auto it = b.find(doc);
    if (it != b.end()) out[doc] = crdt::version_min(versions, it->second);
  }
  return out;
}

/// Total acknowledged ops across docs and origins — the "how advanced is
/// this replica" score used to pick the best rejoin source.
double version_weight(const crdt::DocVersions& versions) {
  double total = 0;
  for (const auto& [doc, vector] : versions) {
    for (const auto& [origin, seq] : vector) total += double(seq);
  }
  return total;
}

/// Pointwise maximum merge. Every component of `other` must be something
/// the peer provably holds, so the merged floor stays a valid ack even
/// when deliveries arrive reordered or duplicated.
void merge_max(crdt::DocVersions& into, const crdt::DocVersions& other) {
  for (const auto& [doc, vector] : other) {
    crdt::VersionVector& mine = into[doc];
    for (const auto& [origin, seq] : vector) {
      std::uint64_t& current = mine[origin];
      current = std::max(current, seq);
    }
  }
}

/// How many of `have`'s ops a delta floored at `floor` would carry.
std::uint64_t ops_missing(const crdt::DocVersions& have, const crdt::DocVersions& floor) {
  std::uint64_t total = 0;
  for (const auto& [doc, vector] : have) {
    const auto floor_doc = floor.find(doc);
    for (const auto& [origin, seq] : vector) {
      std::uint64_t floored = 0;
      if (floor_doc != floor.end()) {
        const auto it = floor_doc->second.find(origin);
        if (it != floor_doc->second.end()) floored = it->second;
      }
      if (seq > floored) total += seq - floored;
    }
  }
  return total;
}

/// The one observable-state comparison behind converged() and
/// sample_staleness(): an endpoint matches the reference when it holds the
/// same doc units with equal state hashes — one word per unit, no
/// materialization. Debug builds also check each verdict against the
/// state_digest() oracle.
bool same_state(const ReplicaState& reference, const ReplicaState& other) {
  const std::vector<DocUnit>& units = reference.docs();
  if (other.docs().size() != units.size()) return false;
  for (const DocUnit& unit : units) {
    const crdt::ReplicatedDoc* theirs = other.doc(unit.name);
    if (!theirs) return false;
    const bool equal = theirs->state_hash() == unit.doc->state_hash();
    assert(equal == (theirs->state_digest() == unit.doc->state_digest()));
    if (!equal) return false;
  }
  return true;
}

}  // namespace

void ReplicationGraph::flight(const std::string& host, const std::string& kind,
                              std::string detail) const {
  if (!telemetry_) return;
  if (obs::FlightRecorder* recorder = telemetry_->flight_recorder()) {
    recorder->record(network_.clock().now(), host, kind, std::move(detail));
  }
}

void ReplicationGraph::note_apply(ReplicaState& receiver, const crdt::SyncMessage& delivered,
                                  const obs::TraceContext& round_ctx, obs::SpanId round_span,
                                  const char* span_name) {
  if (!telemetry_) return;
  // Zero-duration apply span at the receiver, linked to every client
  // trace whose ops this delivery carried — the far end of the
  // write -> sync -> apply causal thread.
  obs::Tracer& tracer = telemetry_->tracer();
  const obs::SpanId apply = tracer.begin_span(span_name, "sync", receiver.id(), round_ctx);
  std::size_t op_count = 0;
  for (const auto& [doc, doc_ops] : delivered.ops) {
    op_count += doc_ops.size();
    for (const crdt::Op& op : doc_ops) {
      const std::uint64_t trace = telemetry_->op_trace(doc, op.origin, op.seq);
      if (trace == 0) continue;
      tracer.link(apply, trace);
      telemetry_->note_delivery(receiver.id(), trace);
    }
  }
  tracer.add_arg(apply, "from", delivered.from);
  tracer.add_arg(apply, "ops", std::to_string(op_count));
  tracer.end_span(apply);
  flight(receiver.id(), "apply",
         std::string(span_name) + " from=" + delivered.from + " ops=" + std::to_string(op_count));
  // end_span keeps the max end time, so every delivery stretches the
  // round span to cover the round's full in-flight window.
  tracer.end_span(round_span);
}

void ReplicationGraph::start_digest_exchange(ReplicaState& advertiser, ReplicaState& responder,
                                             SyncLink& link, const obs::TraceContext& round_ctx,
                                             obs::SpanId round_span, bool rejoin) {
  crdt::SyncMessage digest;
  digest.kind = crdt::SyncKind::kDigest;
  digest.from = advertiser.id();
  digest.versions = advertiser.versions();
  digest.rejoin = rejoin;
  const std::uint64_t advertiser_inc = incarnation_[advertiser.id()];
  const std::uint64_t responder_inc = incarnation_[responder.id()];
  flight(advertiser.id(), "send",
         std::string(rejoin ? "rejoin-digest->" : "digest->") + responder.id());
  pending_round_bytes_ += link.send(
      advertiser.id(), digest,
      [this, &advertiser, &responder, &link, advertiser_inc, responder_inc, round_ctx,
       round_span](const crdt::SyncMessage& delivered) {
        if (incarnation_[responder.id()] != responder_inc) return;
        serve_digest(advertiser, responder, link, delivered, advertiser_inc, round_ctx,
                     round_span);
      },
      round_ctx);
}

void ReplicationGraph::serve_digest(ReplicaState& advertiser, ReplicaState& responder,
                                    SyncLink& link, const crdt::SyncMessage& digest,
                                    std::uint64_t advertiser_inc,
                                    const obs::TraceContext& round_ctx, obs::SpanId round_span) {
  const std::string aid = advertiser.id();
  const std::string rid = responder.id();
  // Both ends must still be in the lives that opened this exchange; a
  // digest whose rejoin flag no longer matches the advertiser's state
  // (rejoin completed elsewhere, or a live node forced into recovery) is
  // stale and answered by a later round instead.
  if (down_.count(rid) || recovering_.count(rid)) return;
  if (down_.count(aid) || incarnation_[aid] != advertiser_inc) return;
  if (digest.rejoin != (recovering_.count(aid) > 0)) return;

  // The digest is the advertiser's authoritative self-report: fold it into
  // the ack cache. Acks self-heal — a lost delta or a cross-path delivery
  // is corrected by the very next digest — so the cache only gates
  // compaction, never what gets sent.
  merge_max(peer_known_[rid + "<-" + aid], digest.versions);

  if (digest.rejoin && snapshot_min_gap_ > 0 &&
      (!responder.can_serve(digest.versions) ||
       ops_missing(responder.versions(), digest.versions) >= snapshot_min_gap_)) {
    // Snapshot negotiation won: either the responder compacted past the
    // joiner (snapshot is the only option) or the advertised gap is wide
    // enough that shipping state + tail beats replaying the missing ops.
    const crdt::SyncMessage snap = responder.collect_snapshot_bootstrap();
    const std::uint64_t bytes =
        link.send(rid, snap,
                  [this, &advertiser, advertiser_inc, rid, round_ctx,
                   round_span](const crdt::SyncMessage& delivered) {
                    deliver_reply(advertiser, delivered, advertiser_inc, rid, round_ctx,
                                  round_span);
                  },
                  round_ctx);
    metrics_.add("sync.bootstrap_bytes", double(bytes));
    rejoin_bytes_[aid] += bytes;
    pending_round_bytes_ += bytes;
    flight(rid, "send",
           "snapshot->" + aid + " bytes=" + std::to_string(bytes) +
               " tail_ops=" + std::to_string(snap.op_count()));
    return;
  }

  if (!responder.can_serve(digest.versions)) {
    if (digest.rejoin) {
      // Compacted past the joiner's reset state: ship the full CRDT state
      // over the same link (it pays netsim latency/loss like any delta).
      crdt::SyncMessage boot;
      boot.kind = crdt::SyncKind::kBootstrap;
      boot.from = rid;
      boot.rejoin = true;
      boot.versions = responder.versions();
      boot.bootstrap = responder.bootstrap_state();
      const std::uint64_t bytes =
          link.send(rid, boot,
                    [this, &advertiser, advertiser_inc, rid, round_ctx,
                     round_span](const crdt::SyncMessage& delivered) {
                      deliver_reply(advertiser, delivered, advertiser_inc, rid, round_ctx,
                                    round_span);
                    },
                    round_ctx);
      metrics_.add("sync.bootstrap_bytes", double(bytes));
      rejoin_bytes_[aid] += bytes;
      pending_round_bytes_ += bytes;
      flight(rid, "send", "bootstrap->" + aid + " bytes=" + std::to_string(bytes));
    } else {
      // A live advertiser below our compaction horizon should be
      // impossible (compaction only trims digest-proven acks), but the
      // rejoin path un-wedges it rather than wedging the link forever.
      metrics_.add("sync.forced_rebuilds");
      recovering_.insert(aid);
    }
    return;
  }

  crdt::SyncMessage reply =
      responder.collect_changes(digest.versions, link.budget_from(rid).budget());
  if (reply.op_count() == 0 && !digest.rejoin) {
    // Peer is current: the whole exchange cost one digest, no payload.
    metrics_.add("sync.digest.hit");
    return;
  }
  metrics_.add(reply.op_count() ? "sync.digest.miss" : "sync.digest.hit");
  reply.rejoin = digest.rejoin;
  pending_round_ops_ += reply.op_count();
  flight(rid, "send", "delta->" + aid + " ops=" + std::to_string(reply.op_count()));
  const std::uint64_t reply_bytes = link.send(
      rid, reply,
      [this, &advertiser, advertiser_inc, rid, round_ctx,
       round_span](const crdt::SyncMessage& delivered) {
        deliver_reply(advertiser, delivered, advertiser_inc, rid, round_ctx, round_span);
      },
      round_ctx);
  if (digest.rejoin) rejoin_bytes_[aid] += reply_bytes;
  pending_round_bytes_ += reply_bytes;
}

void ReplicationGraph::deliver_reply(ReplicaState& advertiser,
                                     const crdt::SyncMessage& delivered,
                                     std::uint64_t advertiser_inc, const std::string& responder_id,
                                     const obs::TraceContext& round_ctx, obs::SpanId round_span) {
  const std::string& aid = advertiser.id();
  if (down_.count(aid) || incarnation_[aid] != advertiser_inc) return;
  const bool rejoining = recovering_.count(aid) > 0;
  // A rejoin reply is only meaningful while still recovering, and a
  // regular reply only while not — anything else is a stale in-flight
  // message from before the state flip.
  if (delivered.rejoin != rejoining) return;

  if (delivered.kind == crdt::SyncKind::kSnapshot) {
    if (!rejoining) return;
    const std::size_t tail_ops = advertiser.install_snapshot_message(delivered);
    rejoin_ops_[aid] += tail_ops;
    if (telemetry_) {
      obs::Tracer& tracer = telemetry_->tracer();
      const obs::SpanId span =
          tracer.begin_span("sync.rejoin.snapshot", "sync", aid, round_ctx);
      tracer.add_arg(span, "from", delivered.from);
      tracer.add_arg(span, "tail_ops", std::to_string(tail_ops));
      tracer.end_span(span);
      tracer.end_span(round_span);
    }
    complete_rejoin(advertiser, RejoinVia::kSnapshot);
    return;
  }

  if (delivered.kind == crdt::SyncKind::kBootstrap) {
    if (!rejoining) return;
    advertiser.restore_bootstrap(delivered.bootstrap);
    if (telemetry_) {
      obs::Tracer& tracer = telemetry_->tracer();
      const obs::SpanId span =
          tracer.begin_span("sync.rejoin.bootstrap", "sync", aid, round_ctx);
      tracer.add_arg(span, "from", delivered.from);
      tracer.end_span(span);
      tracer.end_span(round_span);
    }
    complete_rejoin(advertiser, RejoinVia::kBootstrap);
    return;
  }

  const std::size_t applied = advertiser.apply_message(delivered);
  if (rejoining) rejoin_ops_[aid] += applied;
  // The reply's versions are capped to what its ops actually deliver, so
  // merging them keeps the ack cache a strict lower bound on the
  // responder's holdings.
  merge_max(peer_known_[aid + "<-" + responder_id], delivered.versions);
  note_apply(advertiser, delivered, round_ctx, round_span,
             rejoining ? "sync.rejoin.delta" : "sync.apply");
  // A truncated rejoin delta leaves the joiner recovering: its next
  // rejoin digest resumes the remainder, and only the final full piece
  // completes the rejoin.
  if (rejoining && !delivered.truncated) complete_rejoin(advertiser, RejoinVia::kDelta);
}

void ReplicationGraph::finalize_round_stats() {
  if (!round_stats_pending_) return;
  round_stats_pending_ = false;
  if (!telemetry_ || last_round_span_ == obs::kNoSpan) return;
  obs::Tracer& tracer = telemetry_->tracer();
  tracer.add_arg(last_round_span_, "bytes", std::to_string(pending_round_bytes_));
  tracer.add_arg(last_round_span_, "ops", std::to_string(pending_round_ops_));
  metrics_.observe("sync.round.duration", tracer.span(last_round_span_).duration());
  metrics_.observe("sync.round.bytes", double(pending_round_bytes_),
                   util::Histogram::default_count_bounds());
  metrics_.observe("sync.round.ops", double(pending_round_ops_),
                   util::Histogram::default_count_bounds());
  if (obs::TimeSeries* ts = timeseries()) {
    // Totals are attributed to the simulated moment the round's deliveries
    // finished draining — the end of its (stretched) span.
    const obs::Span& round = telemetry_->tracer().span(last_round_span_);
    const double settled = round.start + round.duration();
    ts->add(settled, "sync.bytes", double(pending_round_bytes_));
    ts->add(settled, "sync.ops", double(pending_round_ops_));
  }
}

void ReplicationGraph::tick_round() {
  // The previous round's replies (and its span's stretching) all landed
  // during the clock drain that followed it; its totals are final only
  // now, so this is where they feed the histograms.
  finalize_round_stats();
  obs::SpanId round_span = obs::kNoSpan;
  obs::TraceContext round_ctx;
  pending_round_bytes_ = 0;
  pending_round_ops_ = 0;
  round_stats_pending_ = true;
  if (telemetry_) {
    round_span = telemetry_->tracer().begin_span("sync.round", "sync", "sync");
    round_ctx = telemetry_->tracer().context(round_span);
    last_round_span_ = round_span;
  }
  // Round boundary for every link's AIMD budgets: sends still pending
  // past the loss horizon count as losses and shrink the next deltas.
  for (const GraphLink& link : links_) link.link->begin_round();
  for (const auto& endpoint : endpoints_) {
    const std::string& id = endpoint->id();
    if (endpoint_up(id) && !recovering_.count(id)) endpoint->record_local();
  }
  for (const auto& endpoint : endpoints_) {
    if (endpoint_up(endpoint->id()) && recovering_.count(endpoint->id())) {
      attempt_rejoin(*endpoint, round_ctx, round_span);
    }
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const GraphLink& link = links_[i];
    if (!endpoint_up(link.a) || !endpoint_up(link.b)) continue;
    if (recovering_.count(link.a) || recovering_.count(link.b)) continue;
    ReplicaState& a = endpoint(link.a);
    ReplicaState& b = endpoint(link.b);
    // Pull anti-entropy at half the control cost: one advertiser per link
    // per round, alternating direction every round. Links are created
    // parent-first (cloud<->regional, regional<->edge), so even rounds pull
    // data up the topology and odd rounds pull it down — a write pipelines
    // leaf -> root -> far leaf in consecutive rounds. Every direction is
    // served every second round, so convergence is preserved — the
    // steady-state digest traffic is simply halved.
    const bool a_advertises = (round_number_ % 2) == 0;
    start_digest_exchange(a_advertises ? a : b, a_advertises ? b : a, *link.link, round_ctx,
                          round_span);
  }
  ++round_number_;
  metrics_.add("sync.rounds");
  if (telemetry_) {
    telemetry_->tracer().end_span(round_span);
    sample_staleness();
  }
}

void ReplicationGraph::sample_staleness() {
  if (!telemetry_ || endpoints_.empty()) return;
  const ReplicaState& reference = *endpoints_.front();
  const crdt::DocVersions ref_versions = reference.versions();
  const double now = network_.clock().now();
  for (const auto& endpoint : endpoints_) {
    if (endpoint.get() == &reference) continue;
    const std::string& id = endpoint->id();
    const crdt::DocVersions mine = endpoint->versions();
    double total_lag = 0;
    for (const auto& [doc, ref_vector] : ref_versions) {
      double lag = 0;
      auto doc_it = mine.find(doc);
      for (const auto& [origin, seq] : ref_vector) {
        std::uint64_t have = 0;
        if (doc_it != mine.end()) {
          auto origin_it = doc_it->second.find(origin);
          if (origin_it != doc_it->second.end()) have = origin_it->second;
        }
        if (seq > have) lag += double(seq - have);
      }
      metrics_.set("sync.staleness.ops." + id + "." + doc, lag);
      total_lag += lag;
    }
    metrics_.set("sync.staleness.ops." + id, total_lag);
    // "Fresh" = observably converged with the reference; the gauge reads
    // simulated seconds since that was last true.
    double& converged_at = last_converged_[id];
    if (endpoint_up(id) && !recovering_.count(id) && same_state(reference, *endpoint)) {
      converged_at = now;
    }
    const double stale_s = now - converged_at;
    metrics_.set("sync.staleness.seconds." + id, stale_s);
    metrics_.observe("sync.staleness.ops", total_lag, util::Histogram::default_count_bounds());
    metrics_.observe("sync.staleness.seconds", stale_s);
    if (obs::TimeSeries* ts = timeseries()) {
      ts->set(now, "staleness.ops." + id, total_lag);
      ts->set(now, "staleness.seconds." + id, stale_s);
      ts->observe(now, "staleness.ops", total_lag, util::Histogram::default_count_bounds());
      ts->observe(now, "staleness.seconds", stale_s);
    }
  }
}

void ReplicationGraph::crash(const std::string& id) {
  if (!has_endpoint(id)) throw std::out_of_range("ReplicationGraph: no endpoint '" + id + "'");
  down_.insert(id);
  recovering_.erase(id);
  ++incarnation_[id];
  // Connection state dies with the process: both sides must forget what
  // they believed the other had, or a reborn replica's re-minted sequence
  // numbers would be silently deduped as "already acknowledged".
  for (const GraphLink& link : links_) {
    if (link.a != id && link.b != id) continue;
    const std::string& other = link.a == id ? link.b : link.a;
    peer_known_.erase(id + "<-" + other);
    peer_known_.erase(other + "<-" + id);
  }
  metrics_.add("sync.crashes");
  if (obs::TimeSeries* ts = timeseries()) ts->add(network_.clock().now(), "node.crash");
  flight(id, "crash", "epoch=" + std::to_string(incarnation_[id]));
}

void ReplicationGraph::restart(const std::string& id) {
  if (!down_.count(id)) {
    throw std::logic_error("ReplicationGraph: restart of '" + id + "' which is not down");
  }
  down_.erase(id);
  recovering_.insert(id);
  recovery_started_[id] = network_.clock().now();
  rejoin_bytes_[id] = 0;
  rejoin_ops_[id] = 0;
  metrics_.add("sync.restarts");
  if (obs::TimeSeries* ts = timeseries()) ts->add(network_.clock().now(), "node.restart");
  flight(id, "restart", "epoch=" + std::to_string(incarnation_[id]) + " recovering");
}

std::uint64_t ReplicationGraph::incarnation(const std::string& id) const {
  auto it = incarnation_.find(id);
  return it == incarnation_.end() ? 0 : it->second;
}

void ReplicationGraph::attempt_rejoin(ReplicaState& joiner, const obs::TraceContext& round_ctx,
                                      obs::SpanId round_span) {
  // Best reachable source: the most advanced up, non-recovering neighbor
  // the network can currently deliver to (registration order tie-break).
  ReplicaState* source = nullptr;
  SyncLink* source_link = nullptr;
  double best = -1;
  for (const GraphLink& link : links_) {
    std::string other;
    if (link.a == joiner.id()) other = link.b;
    else if (link.b == joiner.id()) other = link.a;
    else continue;
    if (!endpoint_up(other) || recovering_.count(other)) continue;
    if (network_.partitioned(joiner.id(), other)) continue;
    ReplicaState& candidate = endpoint(other);
    const double weight = version_weight(candidate.versions());
    if (weight > best) {
      best = weight;
      source = &candidate;
      source_link = link.link.get();
    }
  }
  if (!source) return;  // isolated for now; tick_round() retries

  // Rejoin is digest-driven: the joiner advertises
  // its (reset) state with a rejoin-flagged digest, and the source answers
  // with exactly the missing ranges — or a full bootstrap when it has
  // compacted past the joiner (serve_digest decides, with the same budget
  // and fault exposure as any other exchange).
  start_digest_exchange(joiner, *source, *source_link, round_ctx, round_span, /*rejoin=*/true);
}

void ReplicationGraph::complete_rejoin(ReplicaState& joiner, RejoinVia via) {
  recovering_.erase(joiner.id());
  // Seed fresh connection state with what both sides *provably* hold: the
  // pointwise minimum of their version vectors. That is simultaneously a
  // valid ack (each side really has it — compaction stays safe) and a
  // valid resend floor (nothing either side lacks gets suppressed).
  for (const GraphLink& link : links_) {
    std::string other;
    if (link.a == joiner.id()) other = link.b;
    else if (link.b == joiner.id()) other = link.a;
    else continue;
    const crdt::DocVersions common =
        doc_versions_min(joiner.versions(), endpoint(other).versions());
    peer_known_[joiner.id() + "<-" + other] = common;
    peer_known_[other + "<-" + joiner.id()] = common;
  }
  const char* via_name = via == RejoinVia::kDelta      ? "delta"
                         : via == RejoinVia::kBootstrap ? "bootstrap"
                                                        : "snapshot";
  metrics_.add(std::string("sync.rejoins.") + via_name);
  if (snapshot_min_gap_ > 0) {
    // Negotiation scoreboard: snapshot-shipped rejoins vs op-replay
    // rejoins (delta or full bootstrap), in bytes, ops, and wall time from
    // restart to completion. Only with the knob on — keys must not appear
    // in pre-snapshot exports.
    const std::string bucket =
        via == RejoinVia::kSnapshot ? "bootstrap.snapshot" : "bootstrap.replay";
    metrics_.add(bucket + ".bytes", double(rejoin_bytes_[joiner.id()]));
    metrics_.add(bucket + ".ops", double(rejoin_ops_[joiner.id()]));
    metrics_.observe(bucket + ".ms",
                     (network_.clock().now() - recovery_started_[joiner.id()]) * 1000.0);
  }
  if (obs::TimeSeries* ts = timeseries()) ts->add(network_.clock().now(), "node.rejoin");
  flight(joiner.id(), "rejoin", std::string("via=") + via_name);
  if (on_rejoined_) on_rejoined_(joiner.id());
}

bool ReplicationGraph::converged() const {
  // A rejoining endpoint is not serving and is behind by construction.
  if (!recovering_.empty()) return false;
  const ReplicaState* reference = nullptr;
  for (const auto& endpoint : endpoints_) {
    if (!endpoint_up(endpoint->id())) continue;
    if (!reference) {
      reference = endpoint.get();
    } else if (!same_state(*reference, *endpoint)) {
      return false;
    }
  }
  return true;
}

bool ReplicationGraph::flush_session(const std::string& from, const std::string& to,
                                     std::size_t max_attempts) {
  if (!has_endpoint(from) || !has_endpoint(to)) {
    throw std::out_of_range("ReplicationGraph: flush_session endpoints must be registered");
  }
  metrics_.add("session.handoffs");
  if (from == to) return true;
  const auto fail = [this, &from, &to](const char* why) {
    metrics_.add("session.handoff_failures");
    ++handoff_fail_run_;
    if (obs::TimeSeries* ts = timeseries()) {
      const double t = network_.clock().now();
      ts->add(t, "handoff.fail");
      // The unbroken run of consecutive failures is the SLO watchdog's
      // signal: scattered losses (partitions, crashes) keep resetting it,
      // a broken flush path grows it without bound.
      ts->observe(t, "handoff.fail.run", double(handoff_fail_run_),
                  util::Histogram::default_count_bounds());
    }
    flight(from, "handoff", "->" + to + " FAIL (" + why + ")");
    return false;
  };
  if (handoff_fault_) return fail("injected fault");
  const auto unavailable = [this](const std::string& id) {
    return !endpoint_up(id) || recovering_.count(id) > 0;
  };
  if (unavailable(from) || unavailable(to)) return fail("endpoint unavailable");

  // BFS over live, unpartitioned links: the flush must relay through real
  // neighbors so every delta it triggers is one an endpoint's compaction
  // horizon already accounts for.
  std::map<std::string, std::string> parent;
  std::vector<std::string> frontier{from};
  parent[from] = from;
  while (!frontier.empty() && !parent.count(to)) {
    std::vector<std::string> next;
    for (const std::string& u : frontier) {
      for (const GraphLink& link : links_) {
        std::string other;
        if (link.a == u) other = link.b;
        else if (link.b == u) other = link.a;
        else continue;
        if (parent.count(other) || unavailable(other)) continue;
        if (network_.partitioned(u, other)) continue;
        parent[other] = u;
        next.push_back(other);
      }
    }
    frontier = std::move(next);
  }
  if (!parent.count(to)) return fail("no live path");
  std::vector<std::string> path{to};
  while (path.back() != from) path.push_back(parent[path.back()]);
  std::reverse(path.begin(), path.end());

  obs::SpanId span = obs::kNoSpan;
  obs::TraceContext ctx;
  if (telemetry_) {
    span = telemetry_->tracer().begin_span("session.handoff", "sync", from);
    ctx = telemetry_->tracer().context(span);
    telemetry_->tracer().add_arg(span, "from", from);
    telemetry_->tracer().add_arg(span, "to", to);
    telemetry_->tracer().add_arg(span, "hops", std::to_string(path.size() - 1));
  }

  // Everything `from` holds right now is the session's write set (and
  // then some — over-flushing is only extra traffic, never wrong).
  endpoint(from).record_local();
  const crdt::DocVersions target = endpoint(from).versions();

  bool ok = true;
  for (std::size_t i = 0; i + 1 < path.size() && ok; ++i) {
    ReplicaState& hop_to = endpoint(path[i + 1]);
    SyncLink* link = nullptr;
    for (const GraphLink& candidate : links_) {
      if ((candidate.a == path[i] && candidate.b == path[i + 1]) ||
          (candidate.a == path[i + 1] && candidate.b == path[i])) {
        link = candidate.link.get();
        break;
      }
    }
    // A hop is complete when its versions cover the captured write set;
    // each attempt is one targeted digest exchange (the receiver
    // advertises, the previous hop serves the missing ranges) followed by
    // a full clock drain. Budget-truncated replies and lost messages
    // resume on the next attempt.
    std::size_t attempts = 0;
    while (ops_missing(target, hop_to.versions()) > 0) {
      if (attempts++ >= max_attempts || unavailable(path[i]) || unavailable(path[i + 1])) {
        ok = false;
        break;
      }
      start_digest_exchange(hop_to, endpoint(path[i]), *link, ctx, span);
      network_.clock().run();
    }
  }
  if (telemetry_) {
    telemetry_->tracer().add_arg(span, "ok", ok ? "1" : "0");
    telemetry_->tracer().end_span(span);
  }
  if (!ok) return fail("hop starved");
  metrics_.observe("session.handoff.hops", double(path.size() - 1),
                   util::Histogram::default_count_bounds());
  handoff_fail_run_ = 0;
  if (obs::TimeSeries* ts = timeseries()) ts->add(network_.clock().now(), "handoff.ok");
  flight(from, "handoff", "->" + to + " ok hops=" + std::to_string(path.size() - 1));
  return true;
}

std::size_t ReplicationGraph::compact_logs() {
  // Per endpoint: the pointwise minimum of what every direct neighbor has
  // acknowledged. peer_known_["E<-N"] is what N advertised in its last
  // message E applied — i.e. what N is known to hold.
  static const crdt::DocVersions kEmpty;
  auto acked_by = [&](const std::string& holder, const std::string& neighbor)
      -> const crdt::DocVersions& {
    auto it = peer_known_.find(holder + "<-" + neighbor);
    return it == peer_known_.end() ? kEmpty : it->second;
  };

  std::size_t dropped = 0;
  for (const auto& endpoint : endpoints_) {
    std::vector<const crdt::DocVersions*> acks;
    for (const GraphLink& link : links_) {
      if (link.a == endpoint->id()) acks.push_back(&acked_by(endpoint->id(), link.b));
      if (link.b == endpoint->id()) acks.push_back(&acked_by(endpoint->id(), link.a));
    }
    if (acks.empty()) continue;  // isolated endpoint: nothing is acked

    // Pointwise minimum across neighbors, per doc unit. A doc missing from
    // any neighbor's ack floors to "nothing acked" for safety.
    crdt::DocVersions min_acked = *acks.front();
    for (std::size_t i = 1; i < acks.size(); ++i) {
      for (auto it = min_acked.begin(); it != min_acked.end();) {
        auto other = acks[i]->find(it->first);
        if (other == acks[i]->end()) {
          it = min_acked.erase(it);
        } else {
          it->second = crdt::version_min(it->second, other->second);
          ++it;
        }
      }
    }
    dropped += endpoint->compact(min_acked);
  }
  metrics_.add("sync.ops_compacted", double(dropped));
  return dropped;
}

std::uint64_t ReplicationGraph::total_sync_bytes() const {
  std::uint64_t total = 0;
  for (const GraphLink& link : links_) total += link.link->total_bytes();
  return total;
}

std::uint64_t ReplicationGraph::sync_messages() const {
  std::uint64_t total = 0;
  for (const GraphLink& link : links_) total += link.link->messages();
  return total;
}

void ReplicationGraph::reset_traffic_stats() {
  for (const GraphLink& link : links_) link.link->reset_stats();
  metrics_.reset("sync.bytes.");
  metrics_.reset("sync.messages");
  metrics_.reset("sync.ops_shipped.");
  metrics_.reset("sync.digest.");
  metrics_.reset("sync.batch.");
}

void wire_star(ReplicationGraph& graph, const std::string& root,
               const std::vector<std::string>& leaves) {
  for (const std::string& leaf : leaves) graph.add_link(root, leaf);
}

void wire_mesh(ReplicationGraph& graph, const std::vector<std::string>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) graph.add_link(ids[i], ids[j]);
  }
}

}  // namespace edgstr::runtime
