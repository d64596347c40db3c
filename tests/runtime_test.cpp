#include <gtest/gtest.h>

#include "runtime/node.h"
#include "runtime/proxy.h"
#include "runtime/sync_engine.h"

namespace edgstr::runtime {
namespace {

const char* kServer = R"JS(
var count = 0;
db.query("CREATE TABLE events (n)");
app.post("/bump", function (req, res) {
  var by = req.params.by;
  compute(100);
  count = count + by;
  db.query("INSERT INTO events (n) VALUES (?)", [count]);
  res.send({ count: count });
});
app.get("/fail", function (req, res) {
  throw "deliberate failure";
});
app.get("/read", function (req, res) {
  res.send({ count: count });
});
)JS";

http::HttpRequest bump(double by) {
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/bump";
  req.params = json::Value::object({{"by", by}});
  return req;
}

// --------------------------------------------------------- ServiceRuntime --

TEST(ServiceRuntimeTest, HandlesRequestsAgainstLiveState) {
  ServiceRuntime svc(kServer);
  EXPECT_DOUBLE_EQ(svc.handle(bump(2)).response.body["count"].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(svc.handle(bump(3)).response.body["count"].as_number(), 5.0);
  EXPECT_EQ(svc.requests_served(), 2u);
}

TEST(ServiceRuntimeTest, ReportsComputeUnits) {
  ServiceRuntime svc(kServer);
  EXPECT_DOUBLE_EQ(svc.handle(bump(1)).compute_units, 100.0);
}

TEST(ServiceRuntimeTest, CatchesHandlerFailures) {
  ServiceRuntime svc(kServer);
  http::HttpRequest req;
  req.path = "/fail";
  const ExecutionResult result = svc.handle(req);
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.response.status, 500);
  EXPECT_EQ(svc.failures(), 1u);
}

TEST(ServiceRuntimeTest, StateSnapshotRoundTrip) {
  ServiceRuntime svc(kServer);
  svc.handle(bump(7));
  const trace::Snapshot snap = svc.capture_state();
  ServiceRuntime other(kServer);
  other.restore_state(snap);
  http::HttpRequest req;
  req.path = "/read";
  EXPECT_DOUBLE_EQ(other.handle(req).response.body["count"].as_number(), 7.0);
}

TEST(ServiceRuntimeTest, RoutesEnumerated) {
  ServiceRuntime svc(kServer);
  EXPECT_EQ(svc.routes().size(), 3u);
  EXPECT_TRUE(svc.has_route({http::Verb::kPost, "/bump"}));
}

// -------------------------------------------------------------------- Node --

TEST(NodeTest, ExecutionTimeScalesWithComputeAndDevice) {
  netsim::SimClock clock;
  NodeSpec spec;
  spec.name = "n";
  spec.seconds_per_unit = 0.001;
  spec.request_overhead_s = 0.01;
  Node node(clock, spec);
  node.host(std::make_unique<ServiceRuntime>(kServer));

  double finished = -1;
  node.execute(bump(1), [&](ExecutionResult) { finished = clock.now(); });
  clock.run();
  EXPECT_NEAR(finished, 0.01 + 100 * 0.001, 1e-9);
  EXPECT_EQ(node.requests_completed(), 1u);
}

TEST(NodeTest, FifoQueueing) {
  netsim::SimClock clock;
  NodeSpec spec;
  spec.name = "n";
  spec.seconds_per_unit = 0.001;
  spec.request_overhead_s = 0.0;
  Node node(clock, spec);
  node.host(std::make_unique<ServiceRuntime>(kServer));
  double t1 = -1, t2 = -1;
  node.execute(bump(1), [&](ExecutionResult) { t1 = clock.now(); });
  node.execute(bump(1), [&](ExecutionResult) { t2 = clock.now(); });
  EXPECT_EQ(node.active_connections(), 2u);
  clock.run();
  EXPECT_NEAR(t1, 0.1, 1e-9);
  EXPECT_NEAR(t2, 0.2, 1e-9);  // queued behind the first
  EXPECT_EQ(node.active_connections(), 0u);
}

TEST(NodeTest, PowerStateRules) {
  netsim::SimClock clock;
  NodeSpec spec;
  spec.name = "n";
  Node node(clock, spec);
  node.host(std::make_unique<ServiceRuntime>(kServer));
  node.set_power_state(PowerState::kLowPower);
  EXPECT_THROW(node.execute(bump(1), [](ExecutionResult) {}), std::logic_error);
  node.set_power_state(PowerState::kActive);
  node.execute(bump(1), [](ExecutionResult) {});
  EXPECT_THROW(node.set_power_state(PowerState::kLowPower), std::logic_error);  // busy
  clock.run();
  node.set_power_state(PowerState::kLowPower);  // now allowed
}

TEST(NodeTest, EnergyIntegratesPowerStates) {
  netsim::SimClock clock;
  NodeSpec spec;
  spec.name = "n";
  spec.active_power_w = 4.0;
  spec.idle_power_w = 2.0;
  spec.lowpower_power_w = 0.5;
  Node node(clock, spec);
  // 10 s idle-active, then 10 s parked.
  clock.schedule(10.0, [&] { node.set_power_state(PowerState::kLowPower); });
  clock.schedule(20.0, [] {});
  clock.run();
  EXPECT_NEAR(node.time_active(), 10.0, 1e-9);
  EXPECT_NEAR(node.time_low_power(), 10.0, 1e-9);
  EXPECT_NEAR(node.consumed_energy_j(), 10 * 2.0 + 10 * 0.5, 1e-6);
}

TEST(NodeTest, ExecuteWithoutServiceThrows) {
  netsim::SimClock clock;
  Node node(clock, NodeSpec{});
  EXPECT_THROW(node.execute(bump(1), [](ExecutionResult) {}), std::logic_error);
}

// ------------------------------------------------------------- TwoTierPath --

TEST(TwoTierPathTest, LatencyReflectsWanTransfer) {
  netsim::Network net(1);
  netsim::LinkConfig wan;
  wan.latency_s = 0.1;
  wan.bandwidth_bps = 10000;
  wan.jitter_s = 0;
  net.connect("client", "cloud", wan);
  NodeSpec spec;
  spec.name = "cloud";
  spec.seconds_per_unit = 1e-6;
  spec.request_overhead_s = 0;
  Node cloud(net.clock(), spec);
  cloud.host(std::make_unique<ServiceRuntime>(kServer));
  TwoTierPath path(net, "client", cloud);

  double latency = -1;
  http::HttpRequest req = bump(1);
  req.payload_bytes = 10000;  // ~1 s serialization
  path.request(req, [&](http::HttpResponse resp, double l) {
    EXPECT_TRUE(resp.ok());
    latency = l;
  });
  net.clock().run();
  // ~1s upload + 2x 0.1s latency + tiny response.
  EXPECT_GT(latency, 1.1);
  EXPECT_LT(latency, 1.5);
  EXPECT_EQ(path.stats().requests, 1u);
}

// --------------------------------------------------------------- EdgeProxy --

struct ProxyWorld {
  netsim::Network net{1};
  Node edge;
  Node cloud;
  ProxyWorld()
      : edge(net.clock(), make_spec("edge", 1e-4)), cloud(net.clock(), make_spec("cloud", 1e-5)) {
    net.connect("client", "edge", netsim::LinkConfig::lan());
    net.connect("edge", "cloud", netsim::LinkConfig::limited_wan());
    net.connect("client", "cloud", netsim::LinkConfig::limited_wan());
    edge.host(std::make_unique<ServiceRuntime>(kServer));
    cloud.host(std::make_unique<ServiceRuntime>(kServer));
  }
  static NodeSpec make_spec(const std::string& name, double spu) {
    NodeSpec s;
    s.name = name;
    s.seconds_per_unit = spu;
    s.request_overhead_s = 0;
    return s;
  }
};

TEST(EdgeProxyTest, ServesReplicatedRouteLocally) {
  ProxyWorld w;
  EdgeProxy proxy(w.net, "client", w.edge, w.cloud, {{http::Verb::kPost, "/bump"}});
  double latency = -1;
  proxy.request(bump(1), [&](http::HttpResponse resp, double l) {
    EXPECT_TRUE(resp.ok());
    latency = l;
  });
  w.net.clock().run();
  EXPECT_EQ(proxy.stats().served_at_edge, 1u);
  EXPECT_EQ(proxy.stats().forwarded_to_cloud, 0u);
  EXPECT_LT(latency, 0.1);  // LAN only
}

TEST(EdgeProxyTest, ForwardsUnreplicatedRoutes) {
  ProxyWorld w;
  EdgeProxy proxy(w.net, "client", w.edge, w.cloud, {{http::Verb::kPost, "/bump"}});
  http::HttpRequest req;
  req.path = "/read";
  double latency = -1;
  proxy.request(req, [&](http::HttpResponse resp, double l) {
    EXPECT_TRUE(resp.ok());
    latency = l;
  });
  w.net.clock().run();
  EXPECT_EQ(proxy.stats().forwarded_to_cloud, 1u);
  EXPECT_GT(latency, 0.5);  // paid the WAN round trip
}

TEST(EdgeProxyTest, FailureFallsBackToCloud) {
  ProxyWorld w;
  // /fail is nominally replicated, but the edge handler throws.
  EdgeProxy proxy(w.net, "client", w.edge, w.cloud, {{http::Verb::kGet, "/fail"}});
  http::HttpRequest req;
  req.path = "/fail";
  int status = 0;
  proxy.request(req, [&](http::HttpResponse resp, double) { status = resp.status; });
  w.net.clock().run();
  // Forwarded; the cloud also fails, and its answer is relayed verbatim —
  // the cloud is assumed to handle failures (§IV-F).
  EXPECT_EQ(proxy.stats().failures_forwarded, 1u);
  EXPECT_EQ(status, 500);
}

TEST(EdgeProxyTest, ParkedEdgeForwardsEverything) {
  ProxyWorld w;
  EdgeProxy proxy(w.net, "client", w.edge, w.cloud, {{http::Verb::kPost, "/bump"}});
  w.edge.set_power_state(PowerState::kLowPower);
  proxy.request(bump(1), [&](http::HttpResponse resp, double) { EXPECT_TRUE(resp.ok()); });
  w.net.clock().run();
  EXPECT_EQ(proxy.stats().served_at_edge, 0u);
  EXPECT_EQ(proxy.stats().forwarded_to_cloud, 1u);
}

// ------------------------------------------------------------- SyncEngine --

struct SyncWorld {
  netsim::Network net{7};
  ServiceRuntime cloud_svc{kServer};
  ServiceRuntime edge_svc{kServer};
  std::shared_ptr<ReplicaState> cloud_state;
  std::shared_ptr<ReplicaState> edge_state;
  SyncEngine engine{net, "cloud"};

  SyncWorld() {
    net.connect("edge0", "cloud", netsim::LinkConfig::limited_wan());
    cloud_state = std::make_shared<ReplicaState>("cloud", &cloud_svc, std::set<std::string>{},
                                                 std::set<std::string>{"*"});
    edge_state = std::make_shared<ReplicaState>("edge0", &edge_svc, std::set<std::string>{},
                                                std::set<std::string>{"*"});
    const trace::Snapshot snap = cloud_svc.capture_state();
    cloud_state->attach_existing();
    edge_state->initialize_from_snapshot(snap);
    engine.set_cloud(cloud_state);
    engine.add_edge("edge0", edge_state);
  }
};

TEST(SyncEngineTest, EdgeChangesReachCloud) {
  SyncWorld w;
  w.edge_svc.handle(bump(5));
  const int rounds = w.engine.sync_until_converged();
  EXPECT_EQ(rounds, 1);
  http::HttpRequest req;
  req.path = "/read";
  EXPECT_DOUBLE_EQ(w.cloud_svc.handle(req).response.body["count"].as_number(), 5.0);
  EXPECT_GT(w.engine.total_sync_bytes(), 0u);
}

TEST(SyncEngineTest, CloudChangesReachEdge) {
  SyncWorld w;
  w.cloud_svc.handle(bump(9));
  w.engine.sync_until_converged();
  http::HttpRequest req;
  req.path = "/read";
  EXPECT_DOUBLE_EQ(w.edge_svc.handle(req).response.body["count"].as_number(), 9.0);
}

TEST(SyncEngineTest, IdleRoundsSendNoOps) {
  SyncWorld w;
  w.engine.sync_until_converged();
  w.engine.reset_traffic_stats();
  w.engine.tick();
  w.net.clock().run();
  // Idle sync messages carry only version vectors (framing), no ops.
  EXPECT_LT(w.engine.total_sync_bytes(), 600u);
}

TEST(SyncEngineTest, DatabaseRowsConvergeAcrossTiers) {
  SyncWorld w;
  w.edge_svc.handle(bump(1));
  w.edge_svc.handle(bump(2));
  w.cloud_svc.handle(bump(10));
  w.engine.sync_until_converged(8);
  EXPECT_EQ(w.edge_state->state_digest(), w.cloud_state->state_digest());
  const auto cloud_rows = w.cloud_svc.database().execute("SELECT * FROM events").rows.size();
  const auto edge_rows = w.edge_svc.database().execute("SELECT * FROM events").rows.size();
  EXPECT_EQ(cloud_rows, edge_rows);
  EXPECT_EQ(cloud_rows, 3u);
}

TEST(SyncEngineTest, PeriodicSyncRunsInBackground) {
  SyncWorld w;
  w.edge_svc.handle(bump(4));
  w.edge_state->record_local();
  w.engine.start(0.5);
  w.net.clock().run_until(3.0);
  w.engine.stop();
  EXPECT_EQ(w.edge_state->state_digest(), w.cloud_state->state_digest());
  // sync_until_converged must refuse while periodic mode could still be on.
  w.engine.start(0.5);
  EXPECT_THROW(w.engine.sync_until_converged(), std::logic_error);
  w.engine.stop();
}

}  // namespace
}  // namespace edgstr::runtime
// NOTE: appended suite — op-log compaction.
namespace edgstr::runtime {
namespace {

TEST(SyncCompactionTest, AckedOpsAreDroppedAndSyncStillWorks) {
  SyncWorld w;
  for (int i = 0; i < 10; ++i) w.edge_svc.handle(bump(1));
  w.engine.sync_until_converged(8);
  // Acks ride the *next* message after application, so run two extra idle
  // rounds for the acknowledgement vectors to circulate (the digest
  // direction alternates per round; one round only refreshes one side).
  for (int i = 0; i < 2; ++i) {
    w.engine.tick();
    w.net.clock().run();
  }

  const std::size_t edge_ops_before = w.edge_state->total_op_count();
  EXPECT_GT(edge_ops_before, 0u);
  const std::size_t dropped = w.engine.compact_logs();
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(w.edge_state->total_op_count(), edge_ops_before);

  // New activity after compaction still syncs correctly.
  w.edge_svc.handle(bump(100));
  EXPECT_GE(w.engine.sync_until_converged(8), 1);
  http::HttpRequest req;
  req.path = "/read";
  EXPECT_DOUBLE_EQ(w.cloud_svc.handle(req).response.body["count"].as_number(), 110.0);
}

TEST(SyncCompactionTest, UnackedOpsSurviveCompaction) {
  SyncWorld w;
  w.engine.sync_until_converged(8);  // establish acks at zero activity
  w.edge_svc.handle(bump(3));
  w.edge_state->record_local();
  // The cloud has not acked these new ops: compaction must keep them.
  const std::size_t ops = w.edge_state->total_op_count();
  w.engine.compact_logs();
  EXPECT_EQ(w.edge_state->total_op_count(), ops);
  EXPECT_GE(w.engine.sync_until_converged(8), 1);
}

TEST(SyncCompactionTest, OpLogFloorReportsServability) {
  crdt::OpLog log("a");
  for (int i = 0; i < 5; ++i) log.record(log.make_local(json::Value(i)));
  crdt::VersionVector acked;
  acked["a"] = 3;
  EXPECT_EQ(log.compact(acked), 3u);
  EXPECT_EQ(log.size(), 2u);
  // A peer at seq >= 3 can still be served; a fresh peer cannot.
  crdt::VersionVector caught_up;
  caught_up["a"] = 3;
  EXPECT_TRUE(log.can_serve(caught_up));
  EXPECT_FALSE(log.can_serve({}));
  EXPECT_EQ(log.compact_floor().at("a"), 3u);
  // changes_since for the caught-up peer returns exactly the kept ops.
  EXPECT_EQ(log.changes_since(caught_up).size(), 2u);
}

TEST(SyncCompactionTest, VersionMinIsPointwiseAndConservative) {
  crdt::VersionVector a, b;
  a["x"] = 5;
  a["y"] = 2;
  b["x"] = 3;  // y missing from b
  const crdt::VersionVector m = crdt::version_min(a, b);
  EXPECT_EQ(m.at("x"), 3u);
  EXPECT_EQ(m.at("y"), 0u);  // missing components floor to zero
}

}  // namespace
}  // namespace edgstr::runtime
