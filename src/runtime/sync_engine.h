// Background state synchronization scheduler (§III-F, §III-G).
//
// All topology lives in the ReplicationGraph; the engine is a thin driver
// that ticks the graph on the simulation clock. The classic EdgStr layout
// — cloud master + N edges — is built through set_cloud()/add_edge(), but
// any graph (mesh, hierarchy, gossip links) runs through the same tick:
// the rounds between ticks are exactly the paper's weak-consistency
// window, and every replica converges to the same state once deltas stop
// flowing.
#pragma once

#include <memory>
#include <string>

#include "runtime/replication_graph.h"

namespace edgstr::runtime {

class SyncEngine {
 public:
  SyncEngine(netsim::Network& network, std::string cloud_host);

  /// The topology being synchronized; wire arbitrary links through this.
  ReplicationGraph& graph() { return graph_; }
  const ReplicationGraph& graph() const { return graph_; }

  /// Registers the cloud endpoint. Must be called before start().
  void set_cloud(std::shared_ptr<ReplicaState> cloud);

  /// Registers one edge endpoint reachable at `edge_host` and links it to
  /// the cloud (the star topology of Figure 5-(b)).
  void add_edge(const std::string& edge_host, std::shared_ptr<ReplicaState> edge);

  /// Adds a direct edge<->edge gossip link between two edges registered
  /// via add_edge() (Legion-style peer-to-peer). The hosts must be
  /// connected in the Network. Just another graph link: edges keep
  /// converging among themselves even while the cloud is unreachable.
  void add_peer_link(std::size_t edge_a, std::size_t edge_b);

  /// Begins periodic background sync every `interval_s` simulated seconds,
  /// running until the clock drains or `stop()`.
  void start(double interval_s);
  void stop() { running_ = false; }

  /// One synchronous round (also usable directly by tests/benches).
  void tick() { graph_.tick_round(); }

  /// Runs rounds until ReplicationGraph::converged() holds (bounded by
  /// `max_rounds`); returns rounds used, or -1 if not converged — including
  /// when a restarted endpoint's rejoin cannot land within the bound.
  int sync_until_converged(int max_rounds = 16);

  /// Log compaction across the graph (see ReplicationGraph::compact_logs).
  std::size_t compact_logs() { return graph_.compact_logs(); }

  /// Total WAN bytes / messages spent on synchronization so far.
  std::uint64_t total_sync_bytes() const { return graph_.total_sync_bytes(); }
  std::uint64_t sync_messages() const { return graph_.sync_messages(); }
  void reset_traffic_stats() { graph_.reset_traffic_stats(); }

  /// Sync metrics (rounds, per-doc bytes/ops, staleness).
  util::MetricsRegistry& metrics() { return graph_.metrics(); }

 private:
  netsim::Network& network_;
  std::string cloud_host_;
  ReplicationGraph graph_;
  std::vector<std::string> edge_ids_;  ///< add_edge order, for peer links
  bool running_ = false;

  void schedule_next(double interval_s);
};

}  // namespace edgstr::runtime
