// Deployment builders: stand up the simulated two-tier baseline and the
// EdgStr three-tier topology from a TransformResult.
//
// Three-tier topology (Figure 5-(b) / Figure 6-(a)):
//
//   client ==LAN== edge0..k (replica runtimes, RPI devices)
//   client --WAN-- cloud    (fallback path when no edge is active)
//   edge_i --WAN-- cloud    (forwarding + CRDT sync channels)
//
// The builder wires every replica's state into the SyncEngine, initializes
// the replicas from the filtered cloud snapshot, and attaches the cloud
// master's live state as the CRDT baseline.
#pragma once

#include <memory>

#include "cluster/autoscaler.h"
#include "cluster/balancer.h"
#include "cluster/device.h"
#include "cluster/energy.h"
#include "edgstr/pipeline.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "runtime/lane_scheduler.h"
#include "runtime/proxy.h"
#include "runtime/sync_engine.h"
#include "runtime/variant_harness.h"

namespace edgstr::core {

/// Shape of the replication graph the deployment builds.
enum class SyncTopology {
  kStar,          ///< cloud <-> every edge (the paper's Figure 5-(b))
  kStarEdgeMesh,  ///< star plus a full edge<->edge LAN gossip mesh
  kHierarchy,     ///< cloud <-> regional aggregators <-> edges
};

struct DeploymentConfig {
  netsim::LinkConfig wan = netsim::LinkConfig::limited_wan();
  netsim::LinkConfig lan = netsim::LinkConfig::lan();
  cluster::DeviceProfile cloud_device = cluster::DeviceProfile::optiplex5050();
  std::vector<cluster::DeviceProfile> edge_devices = {cluster::DeviceProfile::rpi4()};
  double sync_interval_s = 0.5;   ///< background sync period
  bool start_sync = true;
  std::uint64_t seed = 42;
  SyncTopology topology = SyncTopology::kStar;
  std::size_t hierarchy_fanout = 2;  ///< edges per regional (kHierarchy)
  /// Worker lanes for the sharded runtime. 1 (default) is the plain serial
  /// path — no scheduler is even constructed, so single-lane deployments
  /// are byte-identical to pre-sharding builds. With more lanes the
  /// replication graph fans its per-endpoint work out across them (see
  /// ReplicationGraph::set_lane_scheduler) and the metrics snapshot gains
  /// the `runtime.lanes.*` occupancy series.
  std::size_t lanes = 1;
  /// Online multi-variant execution: every serving runtime (cloud + each
  /// edge) gets a VariantHarness running the service as both engine
  /// variants — "fast" (resolver + CoW, the production config) and
  /// "legacy" (named lookups, the PR 5 tree-walker) — and cross-checks
  /// every request's response and RW-log. Off (default) the serve path is
  /// byte-identical to pre-variant builds; on, the metrics snapshot gains
  /// the `variant.*` series.
  bool variant_check = false;
  /// Test-only: planted on the *legacy* shadow of every harness after
  /// each pre-state restore, so divergence-detection tests can inject a
  /// deliberate semantic fault. Never set outside tests.
  std::function<void(runtime::ServiceRuntime&)> variant_test_fault;
  /// Windowed time-series capture (obs::TimeSeries). Off (default) the
  /// telemetry plane carries no series pointer and every existing export
  /// stays byte-identical; on, proxies / the replication graph / the
  /// variant check path record per-window rates and staleness samples,
  /// exported via ThreeTierDeployment::timeseries_json() and as Perfetto
  /// counter tracks in chrome_trace().
  bool capture_timeseries = false;
  double timeseries_window_s = 1.0;  ///< simulated seconds per window
  /// Black-box flight recorder ring size per host; 0 (default) = off. The
  /// recorder never touches exports, so it can stay on in harness runs
  /// without perturbing byte-identity.
  std::size_t flight_recorder_ring = 0;
  /// Online SLO rules; non-empty (and capture_timeseries on) constructs a
  /// Watchdog over the deployment's time-series. The driver decides when
  /// windows close: call poll_watchdog() at settled points and
  /// finish_watchdog() once at the end.
  std::vector<obs::SloRule> slo_rules;
  /// Durable op logs on every edge replica: each edge gets a simulated
  /// power-loss-aware store (durability::OpLogStore over a MemBackend) and
  /// fsyncs every acked op. crash_edge() then recovers the edge from its
  /// durable log (snapshot + fsynced tail) instead of the bare checkpoint.
  /// Off (default) nothing durable is constructed and every export stays
  /// byte-identical to pre-durability builds.
  bool durable_edges = false;
  /// Snapshot bootstrap threshold forwarded to the replication graph
  /// (ReplicationGraph::set_snapshot_bootstrap); 0 = op replay only.
  std::uint64_t bootstrap_snapshot_ops = 0;
  /// Test-only planted fault: every durable edge's disk lies — sync()
  /// claims durability without providing it. An acked "durable" write then
  /// dies with the power, which the sim's durable-op-loss invariant must
  /// catch. Never set outside tests.
  bool durability_fault = false;
};

/// The original client-cloud deployment (baseline in every benchmark).
class TwoTierDeployment {
 public:
  TwoTierDeployment(const std::string& cloud_source, const DeploymentConfig& config);

  netsim::Network& network() { return network_; }
  runtime::Node& cloud() { return *cloud_; }
  runtime::TwoTierPath& path() { return *path_; }

  /// The deployment's telemetry plane (spans + request metrics).
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }
  /// Metrics snapshot as JSON (counters + histogram summaries).
  json::Value metrics_snapshot() const { return obs::metrics_json(telemetry_.metrics()); }

  /// Issues a request and runs the clock until it completes; returns the
  /// response and fills `latency_s`.
  http::HttpResponse request_sync(const http::HttpRequest& req, double* latency_s = nullptr);

 private:
  netsim::Network network_;
  obs::Telemetry telemetry_;
  std::unique_ptr<runtime::Node> cloud_;
  std::unique_ptr<runtime::TwoTierPath> path_;
};

/// The EdgStr client-edge-cloud deployment.
class ThreeTierDeployment {
 public:
  ThreeTierDeployment(const TransformResult& transform, const DeploymentConfig& config);

  netsim::Network& network() { return network_; }
  runtime::Node& cloud() { return *cloud_; }
  std::vector<std::unique_ptr<runtime::Node>>& edges() { return edges_; }
  runtime::Node& edge(std::size_t i = 0) { return *edges_.at(i); }

  runtime::SyncEngine& sync() { return *sync_; }
  runtime::ReplicationGraph& replication() { return sync_->graph(); }
  runtime::ReplicaState& cloud_state() { return *cloud_state_; }
  runtime::ReplicaState& edge_state(std::size_t i = 0) { return *edge_states_.at(i); }
  /// Regional aggregator states (kHierarchy topology only).
  runtime::ReplicaState& regional_state(std::size_t i = 0) { return *regional_states_.at(i); }
  std::size_t regional_count() const { return regional_states_.size(); }

  /// Single-edge proxy path (latency/throughput benches).
  runtime::EdgeProxy& proxy(std::size_t i = 0) { return *proxies_.at(i); }

  /// The deployment-wide telemetry plane: every proxy, replica state, and
  /// the replication graph emit into it.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }
  /// Chrome-trace JSON of every span recorded so far (Perfetto-loadable).
  /// With time-series capture on, the export also carries one counter
  /// track per windowed metric; capture-off exports are byte-identical to
  /// pre-capture builds.
  json::Value chrome_trace() const {
    return obs::chrome_trace_json(telemetry_.tracer(), timeseries_.get());
  }

  // --- windowed observability (config.capture_timeseries etc.) -----------

  /// The deployment's time-series / flight recorder / watchdog; nullptr
  /// when the corresponding config knob is off.
  obs::TimeSeries* timeseries() { return timeseries_.get(); }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  obs::Watchdog* watchdog() { return watchdog_.get(); }

  /// Windowed export of everything captured so far (empty sections when
  /// capture is off).
  json::Value timeseries_json() const;

  /// Evaluates SLO rules over every window completed before the simulated
  /// now / over the final partial window. No-ops without a watchdog.
  void poll_watchdog();
  void finish_watchdog();
  /// Merged metrics snapshot: request-path (`runtime.*`) histograms from
  /// the telemetry registry plus the replication graph's `sync.*` series;
  /// multi-lane deployments add the `runtime.lanes.*` occupancy series
  /// (single-lane snapshots carry no lane keys at all, keeping them
  /// byte-identical to pre-sharding builds).
  json::Value metrics_snapshot() const;

  /// The deployment's lane scheduler; nullptr when config.lanes <= 1.
  runtime::LaneScheduler* lane_scheduler() { return lane_scheduler_.get(); }

  /// Cluster pieces (Figure 9 benches).
  cluster::LoadBalancer& balancer() { return *balancer_; }
  cluster::ClusterGateway& gateway() { return *gateway_; }
  cluster::AutoScaler& autoscaler() { return *autoscaler_; }
  cluster::EnergyMeter& energy_meter() { return *energy_meter_; }

  /// Issues a request through edge i's proxy and drains the clock.
  http::HttpResponse request_sync(const http::HttpRequest& req, std::size_t edge_index = 0,
                                  double* latency_s = nullptr);

  /// Fail-stop crash of edge i: the node stops serving (its proxy falls
  /// back to the cloud), its volatile CRDT state is wiped back to the
  /// shared checkpoint, and all sync connection state is forgotten. With
  /// durable_edges the rebirth instead replays the edge's durable op log
  /// (latest snapshot + fsynced tail); `keep_unsynced_bytes` models power
  /// loss mid-write — that many bytes of the *unsynced* tail reach the
  /// platter before the cut (0 = clean loss at the fsync horizon, anything
  /// else a torn record for recovery to truncate). Returns the number of
  /// ops replayed from the durable log (0 without durable_edges).
  std::size_t crash_edge(std::size_t i, std::uint64_t keep_unsynced_bytes = 0);
  /// Edge i's durable store / sim backend; nullptr without durable_edges.
  durability::OpLogStore* durable_store(std::size_t i) {
    return i < durable_stores_.size() ? durable_stores_[i].get() : nullptr;
  }
  durability::MemBackend* durable_backend(std::size_t i) {
    return i < durable_backends_.size() ? durable_backends_[i].get() : nullptr;
  }
  /// Durable checkpoint on every live durable edge (snapshot cut + store
  /// compaction); returns op records dropped. No-op without durable_edges.
  std::size_t checkpoint_durable_edges();
  /// Restarts a crashed edge as *recovering*. The node resumes serving
  /// only once the replication graph completes a rejoin (delta from a
  /// peer, or a full bootstrap when peers compacted past the checkpoint).
  void restart_edge(std::size_t i);
  /// True when edge i is serving (up and fully rejoined).
  bool edge_serving(std::size_t i);

  /// True when every *serving* edge replica's CRDT state matches the
  /// cloud's (crashed / still-rejoining edges are expected to be behind).
  bool converged();

  /// Client-session handoff: synchronously flushes `from_host`'s state to
  /// `to_host` along live sync links (ReplicationGraph::flush_session) so
  /// a client migrating between proxies keeps read-your-writes. Returns
  /// false when no live path exists or the flush starves — the session
  /// guarantee lapses and the caller decides what that means.
  bool handoff_session(const std::string& from_host, const std::string& to_host);

  /// Multi-variant execution totals across every harness (0 when
  /// config.variant_check was off).
  std::uint64_t variant_checks() const;
  std::size_t variant_divergence_count() const;
  /// Every recorded divergence, cloud harness first then per-edge.
  std::vector<runtime::Divergence> variant_divergences() const;

  const std::set<http::Route>& served_routes() const { return served_routes_; }

 private:
  netsim::Network network_;
  obs::Telemetry telemetry_;
  /// Present only when config.lanes > 1; attached to the replication
  /// graph. Declared before sync_ so workers outlive nothing they touch
  /// and are joined after the graph stops using them (reverse destruction
  /// order: sync_ first, scheduler last among the two).
  std::unique_ptr<runtime::LaneScheduler> lane_scheduler_;
  std::unique_ptr<runtime::Node> cloud_;
  std::vector<std::unique_ptr<runtime::Node>> edges_;
  std::shared_ptr<runtime::ReplicaState> cloud_state_;
  /// Per-edge durable op logs (config.durable_edges); parallel to edges_.
  /// Declared before the states that hold raw pointers into them, so the
  /// stores outlive every attached ReplicaState.
  std::vector<std::unique_ptr<durability::MemBackend>> durable_backends_;
  std::vector<std::unique_ptr<durability::OpLogStore>> durable_stores_;
  std::vector<std::shared_ptr<runtime::ReplicaState>> edge_states_;
  /// Regional aggregators (kHierarchy): sync relays between cloud and
  /// edges, each backed by its own replica service.
  std::vector<std::unique_ptr<runtime::ServiceRuntime>> regional_services_;
  std::vector<std::shared_ptr<runtime::ReplicaState>> regional_states_;
  std::unique_ptr<runtime::SyncEngine> sync_;
  /// One per serving runtime (index 0 = cloud, then edges in order);
  /// empty unless config.variant_check. Declared after the nodes that own
  /// the primary services, before the proxies that drive traffic.
  std::vector<std::unique_ptr<runtime::VariantHarness>> variant_harnesses_;
  std::vector<std::unique_ptr<runtime::EdgeProxy>> proxies_;
  std::unique_ptr<cluster::LoadBalancer> balancer_;
  std::unique_ptr<cluster::ClusterGateway> gateway_;
  std::unique_ptr<cluster::AutoScaler> autoscaler_;
  std::unique_ptr<cluster::EnergyMeter> energy_meter_;
  std::set<http::Route> served_routes_;
  trace::Snapshot init_snapshot_;  ///< what a crashed edge is reborn from
  double timeseries_window_s_ = 1.0;
  /// Windowed-observability plane; each piece exists only when its config
  /// knob asked for it (telemetry_ carries non-owning pointers).
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::Watchdog> watchdog_;
};

/// Canonical host names used in the simulated topology.
inline constexpr const char* kClientHost = "client";
inline constexpr const char* kCloudHost = "cloud";
std::string edge_host(std::size_t i);
std::string regional_host(std::size_t i);

}  // namespace edgstr::core
