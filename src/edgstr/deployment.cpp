#include "edgstr/deployment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace edgstr::core {

std::string edge_host(std::size_t i) { return "edge" + std::to_string(i); }
std::string regional_host(std::size_t i) { return "regional" + std::to_string(i); }

namespace {

/// The engine variants every harness compares: "fast" is the production
/// config (static resolver + CoW) and doubles as the RW-log reference;
/// "legacy" is the PR 5 tree-walker (named lookups); "vm" is the bytecode
/// compiler + inline-cache VM. The test-only fault, when present, rides
/// the legacy shadow.
std::unique_ptr<runtime::VariantHarness> make_variant_harness(
    const std::string& source, const std::function<void(runtime::ServiceRuntime&)>& fault) {
  minijs::InterpreterConfig fast;
  fast.resolve = true;
  minijs::InterpreterConfig legacy;
  legacy.resolve = false;
  minijs::InterpreterConfig vm;
  vm.vm = true;
  std::vector<runtime::VariantSpec> specs(3);
  specs[0] = runtime::VariantSpec{"fast", fast, nullptr};
  specs[1] = runtime::VariantSpec{"legacy", legacy, fault};
  specs[2] = runtime::VariantSpec{"vm", vm, nullptr};
  return std::make_unique<runtime::VariantHarness>(source, std::move(specs));
}

}  // namespace

TwoTierDeployment::TwoTierDeployment(const std::string& cloud_source,
                                     const DeploymentConfig& config)
    : network_(config.seed), telemetry_(&network_.clock()) {
  cloud_ = std::make_unique<runtime::Node>(network_.clock(), config.cloud_device.spec(kCloudHost));
  auto service = std::make_unique<runtime::ServiceRuntime>(cloud_source);
  service->set_telemetry(&telemetry_);
  cloud_->host(std::move(service));
  network_.connect(kClientHost, kCloudHost, config.wan);
  path_ = std::make_unique<runtime::TwoTierPath>(network_, kClientHost, *cloud_, &telemetry_);
}

http::HttpResponse TwoTierDeployment::request_sync(const http::HttpRequest& req,
                                                   double* latency_s) {
  // Same heap-allocated completion as ThreeTierDeployment::request_sync:
  // a duplicated or delayed response may fire the callback after this
  // frame is gone.
  struct Completion {
    http::HttpResponse response;
    double latency = 0;
    bool done = false;
  };
  auto completion = std::make_shared<Completion>();
  path_->request(req, [completion](http::HttpResponse resp, double latency) {
    if (completion->done) return;
    completion->response = std::move(resp);
    completion->latency = latency;
    completion->done = true;
  });
  while (!completion->done && network_.clock().step()) {
  }
  if (completion->done && latency_s) *latency_s = completion->latency;
  return completion->response;
}

ThreeTierDeployment::ThreeTierDeployment(const TransformResult& transform,
                                         const DeploymentConfig& config)
    : network_(config.seed), telemetry_(&network_.clock()) {
  if (!transform.ok) throw std::invalid_argument("ThreeTierDeployment: transform failed");

  // ---- windowed observability ---------------------------------------------
  // Attached to the telemetry plane before any component is built, so every
  // call site sees the pointers from its first sample on. All three stay
  // null when their knobs are off — the telemetry-guarded call sites then
  // skip recording entirely and existing exports keep their exact bytes.
  timeseries_window_s_ = config.timeseries_window_s;
  if (config.capture_timeseries) {
    timeseries_ = std::make_unique<obs::TimeSeries>(config.timeseries_window_s);
    telemetry_.set_timeseries(timeseries_.get());
    if (!config.slo_rules.empty()) {
      watchdog_ = std::make_unique<obs::Watchdog>(timeseries_.get(), config.slo_rules);
    }
  }
  if (config.flight_recorder_ring > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(config.flight_recorder_ring);
    telemetry_.set_flight_recorder(flight_.get());
  }

  // ---- cloud master -------------------------------------------------------
  cloud_ = std::make_unique<runtime::Node>(network_.clock(), config.cloud_device.spec(kCloudHost));
  auto cloud_service = std::make_unique<runtime::ServiceRuntime>(transform.cloud_source);
  cloud_service->set_telemetry(&telemetry_);
  if (config.variant_check) {
    variant_harnesses_.push_back(
        make_variant_harness(transform.cloud_source, config.variant_test_fault));
    cloud_service->set_variant_harness(variant_harnesses_.back().get());
  }
  cloud_->host(std::move(cloud_service));
  network_.connect(kClientHost, kCloudHost, config.wan);

  cloud_state_ = std::make_shared<runtime::ReplicaState>(
      "cloud", cloud_->service(), transform.replicated_files, transform.replicated_globals);
  cloud_state_->attach_existing();
  cloud_state_->set_telemetry(&telemetry_);

  init_snapshot_ = transform.init_snapshot;
  sync_ = std::make_unique<runtime::SyncEngine>(network_, kCloudHost);
  sync_->set_cloud(cloud_state_);
  sync_->graph().set_snapshot_bootstrap(config.bootstrap_snapshot_ops);
  sync_->graph().set_telemetry(&telemetry_);
  if (config.lanes > 1) {
    // Multi-lane deployments shard the replication graph's per-endpoint
    // work. Single-lane deployments skip the scheduler entirely — the
    // graph takes the unchanged serial path and no lane metrics appear.
    lane_scheduler_ = std::make_unique<runtime::LaneScheduler>(config.lanes, config.seed);
    sync_->graph().set_lane_scheduler(lane_scheduler_.get());
  }
  // A rejoined replica goes back into service; regional aggregators have
  // no serving node, so only matching edge hosts flip.
  sync_->graph().set_rejoin_listener([this](const std::string& id) {
    for (const auto& node : edges_) {
      if (node->name() == id) node->set_power_state(runtime::PowerState::kActive);
    }
  });

  for (const http::Route& route : transform.replica.served_routes()) {
    served_routes_.insert(route);
  }

  // ---- edge replicas ------------------------------------------------------
  for (std::size_t i = 0; i < config.edge_devices.size(); ++i) {
    const std::string host = edge_host(i);
    auto node = std::make_unique<runtime::Node>(network_.clock(),
                                                config.edge_devices[i].spec(host));
    auto service = std::make_unique<runtime::ServiceRuntime>(transform.replica.source);
    service->set_telemetry(&telemetry_);
    if (config.variant_check) {
      variant_harnesses_.push_back(
          make_variant_harness(transform.replica.source, config.variant_test_fault));
      service->set_variant_harness(variant_harnesses_.back().get());
    }
    auto state = std::make_shared<runtime::ReplicaState>(
        host, service.get(), transform.replicated_files, transform.replicated_globals);
    state->initialize_from_snapshot(transform.init_snapshot);
    state->set_telemetry(&telemetry_);
    if (config.durable_edges) {
      durable_backends_.push_back(std::make_unique<durability::MemBackend>());
      if (config.durability_fault) durable_backends_.back()->set_fail_sync(true);
      durable_stores_.push_back(
          std::make_unique<durability::OpLogStore>(durable_backends_.back().get()));
      state->attach_durable(durable_stores_.back().get());
      // Durable baseline: the init-snapshot cut. Gives the edge a serving
      // checkpoint from round zero and bounds its in-memory compaction.
      state->checkpoint_durable();
    }
    node->host(std::move(service));

    network_.connect(kClientHost, host, config.lan);
    network_.connect(host, kCloudHost, config.wan);
    if (config.topology == SyncTopology::kHierarchy) {
      // Edges join the graph but sync through a regional aggregator,
      // wired below once the group assignment is known.
      sync_->graph().add_endpoint(state);
    } else {
      sync_->add_edge(host, state);
    }

    proxies_.push_back(std::make_unique<runtime::EdgeProxy>(
        network_, kClientHost, *node, *cloud_, served_routes_, state.get(),
        cloud_state_.get(), &telemetry_));
    edge_states_.push_back(std::move(state));
    edges_.push_back(std::move(node));
  }

  // ---- replication topology beyond the star -------------------------------
  if (config.topology == SyncTopology::kStarEdgeMesh) {
    std::vector<std::string> hosts;
    for (std::size_t i = 0; i < edge_states_.size(); ++i) hosts.push_back(edge_host(i));
    cluster::wire_edge_mesh(sync_->graph(), network_, hosts, config.lan);
  } else if (config.topology == SyncTopology::kHierarchy) {
    const std::size_t fanout = std::max<std::size_t>(1, config.hierarchy_fanout);
    const std::size_t n_regionals = (edge_states_.size() + fanout - 1) / fanout;
    for (std::size_t r = 0; r < n_regionals; ++r) {
      const std::string host = regional_host(r);
      auto service = std::make_unique<runtime::ServiceRuntime>(transform.replica.source);
      service->set_telemetry(&telemetry_);
      auto state = std::make_shared<runtime::ReplicaState>(
          host, service.get(), transform.replicated_files, transform.replicated_globals);
      state->initialize_from_snapshot(transform.init_snapshot);
      state->set_telemetry(&telemetry_);
      network_.connect(host, kCloudHost, config.wan);
      sync_->graph().add_endpoint(state);
      sync_->graph().add_link(kCloudHost, host);
      for (std::size_t i = r * fanout; i < std::min((r + 1) * fanout, edge_states_.size()); ++i) {
        network_.connect(host, edge_host(i), config.lan);
        sync_->graph().add_link(host, edge_host(i));
      }
      regional_states_.push_back(std::move(state));
      regional_services_.push_back(std::move(service));
    }
  }

  // ---- cluster management -------------------------------------------------
  std::vector<runtime::Node*> node_ptrs;
  for (const auto& node : edges_) node_ptrs.push_back(node.get());
  balancer_ = std::make_unique<cluster::LoadBalancer>(node_ptrs);
  gateway_ = std::make_unique<cluster::ClusterGateway>(network_, kClientHost, *balancer_, *cloud_,
                                                       served_routes_);
  std::vector<runtime::ReplicaState*> state_ptrs;
  for (const auto& state : edge_states_) state_ptrs.push_back(state.get());
  gateway_->set_sync_states(state_ptrs);
  autoscaler_ = std::make_unique<cluster::AutoScaler>(*balancer_);
  energy_meter_ = std::make_unique<cluster::EnergyMeter>(node_ptrs);

  if (config.start_sync) sync_->start(config.sync_interval_s);
}

http::HttpResponse ThreeTierDeployment::request_sync(const http::HttpRequest& req,
                                                     std::size_t edge_index, double* latency_s) {
  // The response callback can outlive this frame: under fault injection a
  // duplicated (or lost-then-duplicated) response pops out of the network
  // during a *later* clock pump. Completion state therefore lives on the
  // heap, shared with the callback, and only the first response is taken.
  struct Completion {
    http::HttpResponse response;
    double latency = 0;
    bool done = false;
  };
  auto completion = std::make_shared<Completion>();
  proxies_.at(edge_index)->request(req, [completion](http::HttpResponse resp, double latency) {
    if (completion->done) return;  // duplicate delivery: first response wins
    completion->response = std::move(resp);
    completion->latency = latency;
    completion->done = true;
  });
  while (!completion->done && network_.clock().step()) {
  }
  if (completion->done && latency_s) *latency_s = completion->latency;
  return completion->response;
}

std::size_t ThreeTierDeployment::crash_edge(std::size_t i, std::uint64_t keep_unsynced_bytes) {
  edges_.at(i)->set_power_state(runtime::PowerState::kCrashed);
  sync_->graph().crash(edge_host(i));
  if (i < durable_backends_.size() && durable_backends_[i]) {
    // Power loss, then rebirth from whatever the platter kept: the fsynced
    // prefix plus up to `keep_unsynced_bytes` of torn tail, which recovery
    // truncates at the first corrupt frame.
    durable_backends_[i]->power_loss(keep_unsynced_bytes);
    return edge_states_.at(i)->crash_reset_durable(init_snapshot_);
  }
  edge_states_.at(i)->crash_reset(init_snapshot_);
  return 0;
}

std::size_t ThreeTierDeployment::checkpoint_durable_edges() {
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < edge_states_.size(); ++i) {
    if (i >= durable_stores_.size() || !durable_stores_[i]) continue;
    const std::string host = edge_host(i);
    if (!sync_->graph().endpoint_up(host) || sync_->graph().recovering(host)) continue;
    dropped += edge_states_[i]->checkpoint_durable();
  }
  return dropped;
}

void ThreeTierDeployment::restart_edge(std::size_t i) {
  if (i >= edges_.size()) throw std::out_of_range("restart_edge: no edge " + std::to_string(i));
  sync_->graph().restart(edge_host(i));
}

bool ThreeTierDeployment::edge_serving(std::size_t i) {
  const std::string host = edge_host(i);
  return sync_->graph().endpoint_up(host) && !sync_->graph().recovering(host) &&
         edges_.at(i)->power_state() == runtime::PowerState::kActive;
}

bool ThreeTierDeployment::handoff_session(const std::string& from_host,
                                          const std::string& to_host) {
  return sync_->graph().flush_session(from_host, to_host);
}

std::uint64_t ThreeTierDeployment::variant_checks() const {
  std::uint64_t total = 0;
  for (const auto& harness : variant_harnesses_) total += harness->checks();
  return total;
}

std::size_t ThreeTierDeployment::variant_divergence_count() const {
  std::size_t total = 0;
  for (const auto& harness : variant_harnesses_) total += harness->divergences().size();
  return total;
}

std::vector<runtime::Divergence> ThreeTierDeployment::variant_divergences() const {
  std::vector<runtime::Divergence> out;
  for (const auto& harness : variant_harnesses_) {
    out.insert(out.end(), harness->divergences().begin(), harness->divergences().end());
  }
  return out;
}

json::Value ThreeTierDeployment::metrics_snapshot() const {
  std::vector<const util::MetricsRegistry*> registries{&telemetry_.metrics(),
                                                       &sync_->graph().metrics()};
  util::MetricsRegistry lanes;
  if (lane_scheduler_) {
    lane_scheduler_->export_metrics(lanes);
    registries.push_back(&lanes);
  }
  // Variant-execution series appear only when harnesses exist, keeping
  // variant-off snapshots byte-identical to pre-variant builds.
  util::MetricsRegistry variants;
  if (!variant_harnesses_.empty()) {
    variants.add("variant.checks", double(variant_checks()));
    variants.add("variant.divergence.count", double(variant_divergence_count()));
    std::map<std::string, double> by_variant;
    for (const auto& harness : variant_harnesses_) {
      for (const runtime::Divergence& d : harness->divergences()) ++by_variant[d.variant];
    }
    for (const auto& [name, count] : by_variant) {
      variants.add("variant.divergence." + name, count);
    }
    registries.push_back(&variants);
  }
  // Durability series appear only when durable stores exist, keeping
  // durability-off snapshots byte-identical to pre-durability builds.
  util::MetricsRegistry durability;
  if (!durable_stores_.empty()) {
    double fsyncs = 0, appended = 0, recoveries = 0, truncated = 0, compactions = 0, bytes = 0;
    for (const auto& store : durable_stores_) {
      fsyncs += double(store->fsyncs());
      appended += double(store->appended_ops());
      recoveries += double(store->recoveries());
      truncated += double(store->truncated_records());
      compactions += double(store->compactions());
      bytes += double(store->bytes());
    }
    durability.add("durability.fsyncs", fsyncs);
    durability.add("durability.appended_ops", appended);
    durability.add("durability.recoveries", recoveries);
    durability.add("durability.truncated_records", truncated);
    durability.add("durability.compactions", compactions);
    durability.add("durability.log_bytes", bytes);
    registries.push_back(&durability);
  }
  return obs::metrics_json(registries);
}

json::Value ThreeTierDeployment::timeseries_json() const {
  if (timeseries_) return obs::timeseries_json(*timeseries_);
  return obs::timeseries_json(obs::TimeSeries(timeseries_window_s_));
}

void ThreeTierDeployment::poll_watchdog() {
  if (watchdog_) watchdog_->poll(telemetry_.now(), flight_.get());
}

void ThreeTierDeployment::finish_watchdog() {
  if (watchdog_) watchdog_->finish(flight_.get());
}

bool ThreeTierDeployment::converged() {
  const runtime::ReplicationGraph& graph = sync_->graph();
  for (std::size_t i = 0; i < edge_states_.size(); ++i) {
    const std::string host = edge_host(i);
    if (!graph.endpoint_up(host) || graph.recovering(host)) continue;
    if (!edge_states_[i]->converged_with(*cloud_state_)) return false;
  }
  return true;
}

}  // namespace edgstr::core
