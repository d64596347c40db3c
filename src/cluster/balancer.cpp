#include "cluster/balancer.h"

namespace edgstr::cluster {

void wire_edge_mesh(runtime::ReplicationGraph& graph, netsim::Network& network,
                    const std::vector<std::string>& edge_hosts,
                    const netsim::LinkConfig& lan) {
  for (std::size_t i = 0; i < edge_hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < edge_hosts.size(); ++j) {
      if (!network.connected(edge_hosts[i], edge_hosts[j])) {
        network.connect(edge_hosts[i], edge_hosts[j], lan);
      }
      graph.add_link(edge_hosts[i], edge_hosts[j]);
    }
  }
}

runtime::Node* LoadBalancer::pick(
    const std::map<runtime::Node*, std::size_t>* extra_load) const {
  runtime::Node* best = nullptr;
  std::size_t best_load = 0;
  for (runtime::Node* node : nodes_) {
    if (node->power_state() != runtime::PowerState::kActive || !node->hosting()) continue;
    std::size_t load = node->active_connections();
    if (extra_load) {
      auto it = extra_load->find(node);
      if (it != extra_load->end()) load += it->second;
    }
    if (!best || load < best_load) {
      best = node;
      best_load = load;
    }
  }
  return best;
}

std::size_t LoadBalancer::total_active_connections() const {
  std::size_t total = 0;
  for (const runtime::Node* node : nodes_) {
    if (node->power_state() == runtime::PowerState::kActive) {
      total += node->active_connections();
    }
  }
  return total;
}

std::size_t LoadBalancer::active_node_count() const {
  std::size_t count = 0;
  for (const runtime::Node* node : nodes_) {
    if (node->power_state() == runtime::PowerState::kActive) ++count;
  }
  return count;
}

ClusterGateway::ClusterGateway(netsim::Network& network, std::string client_host,
                               LoadBalancer& balancer, runtime::Node& cloud,
                               std::set<http::Route> served_routes)
    : network_(network),
      client_host_(std::move(client_host)),
      balancer_(balancer),
      cloud_(cloud),
      served_routes_(std::move(served_routes)) {}

runtime::ReplicaState* ClusterGateway::sync_state_for(const runtime::Node* node) const {
  const auto& nodes = balancer_.nodes();
  for (std::size_t i = 0; i < nodes.size() && i < sync_states_.size(); ++i) {
    if (nodes[i] == node) return sync_states_[i];
  }
  return nullptr;
}

void ClusterGateway::forward_to_cloud(const http::HttpRequest& req, double start,
                                      runtime::RequestCallback done, bool was_failure) {
  ++stats_.forwarded_to_cloud;
  if (was_failure) ++stats_.failures_forwarded;
  network_.send(client_host_, cloud_.name(), req.wire_size(),
                [this, req, start, done = std::move(done)]() mutable {
                  cloud_.execute(req, [this, start, done = std::move(done)](
                                          runtime::ExecutionResult result) mutable {
                    const std::uint64_t bytes = result.response.wire_size();
                    network_.send(cloud_.name(), client_host_, bytes,
                                  [this, resp = std::move(result.response), start,
                                   done = std::move(done)]() mutable {
                                    done(std::move(resp), network_.clock().now() - start);
                                  });
                  });
                });
}

void ClusterGateway::request(const http::HttpRequest& req, runtime::RequestCallback done) {
  ++stats_.requests;
  const double start = network_.clock().now();
  const http::Route route{req.verb, req.path};

  runtime::Node* node = served_routes_.count(route) ? balancer_.pick(&in_flight_) : nullptr;
  if (!node) {
    forward_to_cloud(req, start, std::move(done), /*was_failure=*/false);
    return;
  }
  ++in_flight_[node];
  // Client -> chosen edge node (LAN).
  network_.send(
      client_host_, node->name(), req.wire_size(),
      [this, node, req, start, done = std::move(done)]() mutable {
        --in_flight_[node];
        // The autoscaler may have parked this node while the request was in
        // flight; hand the request to the cloud rather than a sleeping Pi.
        if (node->power_state() != runtime::PowerState::kActive || !node->hosting()) {
          forward_to_cloud(req, start, std::move(done), /*was_failure=*/false);
          return;
        }
        node->execute(req, [this, node, req, start, done = std::move(done)](
                              runtime::ExecutionResult result) mutable {
          if (result.failed) {
            forward_to_cloud(req, start, std::move(done), /*was_failure=*/true);
            return;
          }
          ++stats_.served_at_edge;
          if (runtime::ReplicaState* sync = sync_state_for(node)) sync->record_local();
          const std::uint64_t bytes = result.response.wire_size();
          network_.send(node->name(), client_host_, bytes,
                        [this, resp = std::move(result.response), start,
                         done = std::move(done)]() mutable {
                          done(std::move(resp), network_.clock().now() - start);
                        });
        });
      });
}

}  // namespace edgstr::cluster
