// The fig9 scaled scenario: an edge -> regional -> cloud hierarchy of full
// replicas on one ReplicationGraph, wired with real SyncLinks over a
// simulated network (LAN edge uplinks, fast-WAN regional uplinks).
//
// Each round, every edge serves a batch of client inserts, as a
// deployment's proxy would; then the graph runs one digest sync round and
// the network clock drains.
//
// bench_fig9_cluster measures it at full size; replication_test and
// bench_regression_test pin its deterministic counters at small sizes.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "runtime/replication_graph.h"
#include "runtime/service_runtime.h"
#include "sqldb/parser.h"

namespace edgstr::bench {

class ScaledHierarchy {
 public:
  /// Disjoint user slice per edge; the population is edges * this.
  static constexpr std::size_t kUsersPerEdge = 512;

  /// `edges` edges under ceil(edges / fanout) regionals under one cloud.
  ScaledHierarchy(std::size_t edges, std::size_t fanout) {
    add("cloud");
    std::vector<std::string> regionals;
    for (std::size_t r = 0; r * fanout < edges; ++r) {
      regionals.push_back("regional" + std::to_string(r));
      add(regionals.back());
      network_.connect("cloud", regionals.back(), netsim::LinkConfig::fast_wan());
    }
    // Parent-first link order: even rounds pull writes up the tree.
    runtime::wire_star(graph_, "cloud", regionals);
    for (std::size_t r = 0; r < regionals.size(); ++r) {
      std::vector<std::string> slice;
      for (std::size_t e = r * fanout; e < edges && e < (r + 1) * fanout; ++e) {
        edge_ids_.push_back("edge" + std::to_string(e));
        add(edge_ids_.back());
        network_.connect(regionals[r], edge_ids_.back(), netsim::LinkConfig::lan());
        slice.push_back(edge_ids_.back());
      }
      runtime::wire_star(graph_, regionals[r], slice);
    }
  }

  /// `rounds` rounds of `ops_per_edge` inserts at every edge, one sync
  /// round after each batch. A deterministic stride walks each edge's
  /// user slice, so the rows sample the whole population.
  void drive(std::size_t rounds, std::size_t ops_per_edge) {
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t e = 0; e < edge_ids_.size(); ++e) {
        sqldb::Database& db = graph_.endpoint(edge_ids_[e]).service().database();
        for (std::size_t j = 0; j < ops_per_edge; ++j) {
          const std::size_t user =
              e * kUsersPerEdge + ((round * ops_per_edge + j) * 61) % kUsersPerEdge;
          db.execute(insert_, {sqldb::SqlValue(double(user)),
                               sqldb::SqlValue(double(round * 1000 + j))});
        }
      }
      client_ops_ += edge_ids_.size() * ops_per_edge;
      sync_round();
    }
  }

  /// Sync rounds until ReplicationGraph::converged(); -1 when it has not
  /// converged after `max_rounds`.
  int rounds_to_converge(int max_rounds = 16) {
    for (int round = 0; round <= max_rounds; ++round) {
      if (graph_.converged()) return round;
      if (round < max_rounds) sync_round();
    }
    return -1;
  }

  runtime::ReplicationGraph& graph() { return graph_; }
  runtime::ReplicaState& cloud() { return graph_.endpoint("cloud"); }
  const std::vector<std::string>& edge_ids() const { return edge_ids_; }
  std::size_t client_ops() const { return client_ops_; }

 private:
  void add(const std::string& id) {
    services_.push_back(std::make_unique<runtime::ServiceRuntime>(
        R"JS(db.query("CREATE TABLE events (user, v)");)JS"));
    auto state = std::make_shared<runtime::ReplicaState>(
        id, services_.back().get(), std::set<std::string>{}, std::set<std::string>{});
    state->attach_existing();
    graph_.add_endpoint(std::move(state));
  }

  void sync_round() {
    graph_.tick_round();
    network_.clock().run();
  }

  // Declaration order is teardown order in reverse: the graph (and the
  // replica states it owns) goes before the services.
  std::vector<std::unique_ptr<runtime::ServiceRuntime>> services_;
  netsim::Network network_;
  runtime::ReplicationGraph graph_{network_};
  sqldb::Statement insert_ = sqldb::parse_sql("INSERT INTO events (user, v) VALUES (?, ?)");
  std::vector<std::string> edge_ids_;
  std::size_t client_ops_ = 0;
};

}  // namespace edgstr::bench
