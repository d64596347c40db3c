// Symmetric state-synchronization link (the socket.io stand-in).
//
// Connects two replication endpoints over the simulated network and
// carries batch-encoded sync messages in either direction — there is no
// "cloud side" or "edge side"; a link between a cloud and an edge, between
// two gossiping edges, or between a regional aggregator and its children
// is the same object. Sync traffic is accounted separately from request
// traffic (the W_AN_e column of Table II comes from these counters), and
// per-doc / per-endpoint details land in the owning graph's metrics
// registry. When a Telemetry is attached, every send opens a "sync.send"
// span that closes at delivery and links the traces of the client writes
// whose ops the message carries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "crdt/wire.h"
#include "netsim/network.h"
#include "obs/telemetry.h"
#include "runtime/batch_budget.h"
#include "util/metrics.h"

namespace edgstr::runtime {

class SyncLink {
 public:
  /// `metrics` (optional) receives per-doc byte/op accounting.
  SyncLink(netsim::Network& network, std::string endpoint_a, std::string endpoint_b,
           util::MetricsRegistry* metrics = nullptr);

  /// Attaches (or detaches, with nullptr) the span/provenance plane.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Sends a sync message from one end of the link to the other; `from`
  /// must be one of the two endpoints, `on_delivered` fires at arrival
  /// with the decoded message. Messages dropped by the network simply
  /// never deliver — the next round retransmits whatever stays unacked.
  /// `parent` (optional) parents the transit span, typically the sync
  /// round that triggered the send. Returns the wire bytes charged.
  std::uint64_t send(const std::string& from, const crdt::SyncMessage& message,
                     std::function<void(const crdt::SyncMessage&)> on_delivered,
                     const obs::TraceContext& parent = {});

  const std::string& endpoint_a() const { return a_; }
  const std::string& endpoint_b() const { return b_; }
  /// The opposite end; throws if `endpoint` is on neither end.
  const std::string& other_end(const std::string& endpoint) const;

  /// Round boundary for both direction budgets: expires lost sends and
  /// applies the AIMD step (see BatchBudget::begin_round). Inferred losses
  /// land on the `sync.batch.losses` counter.
  void begin_round();

  /// The adaptive delta budget governing messages *sent by* `sender`;
  /// throws if `sender` is on neither end.
  BatchBudget& budget_from(const std::string& sender);

  std::uint64_t total_bytes() const { return bytes_; }
  std::uint64_t messages() const { return messages_; }
  void reset_stats() { bytes_ = messages_ = 0; }

 private:
  netsim::Network& network_;
  std::string a_;
  std::string b_;
  util::MetricsRegistry* metrics_;
  obs::Telemetry* telemetry_ = nullptr;
  BatchBudget budget_ab_;  ///< governs deltas sent by endpoint a
  BatchBudget budget_ba_;  ///< governs deltas sent by endpoint b
  std::uint64_t bytes_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace edgstr::runtime
