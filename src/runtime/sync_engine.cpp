#include "runtime/sync_engine.h"

#include <stdexcept>

namespace edgstr::runtime {

SyncEngine::SyncEngine(netsim::Network& network, std::string cloud_host)
    : network_(network), cloud_host_(std::move(cloud_host)), graph_(network) {}

void SyncEngine::set_cloud(std::shared_ptr<ReplicaState> cloud) {
  graph_.add_endpoint(std::move(cloud));
}

void SyncEngine::add_edge(const std::string& edge_host, std::shared_ptr<ReplicaState> edge) {
  graph_.add_endpoint(std::move(edge));
  graph_.add_link(cloud_host_, edge_host);
  edge_ids_.push_back(edge_host);
}

void SyncEngine::add_peer_link(std::size_t edge_a, std::size_t edge_b) {
  if (edge_a >= edge_ids_.size() || edge_b >= edge_ids_.size() || edge_a == edge_b) {
    throw std::invalid_argument("add_peer_link: invalid edge indices");
  }
  graph_.add_link(edge_ids_[edge_a], edge_ids_[edge_b]);
}

void SyncEngine::schedule_next(double interval_s) {
  network_.clock().schedule(interval_s, [this, interval_s] {
    if (!running_) return;
    tick();
    schedule_next(interval_s);
  });
}

void SyncEngine::start(double interval_s) {
  running_ = true;
  schedule_next(interval_s);
}

int SyncEngine::sync_until_converged(int max_rounds) {
  if (running_) {
    // A periodic chain keeps re-scheduling itself, so clock().run() would
    // never drain. Callers must stop() first (or never start()).
    throw std::logic_error("sync_until_converged: stop periodic sync first");
  }
  for (int round = 1; round <= max_rounds; ++round) {
    tick();
    network_.clock().run();
    if (graph_.converged()) return round;
  }
  return -1;
}

}  // namespace edgstr::runtime
