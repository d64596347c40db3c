// Replication plane: ReplicationGraph topologies, batched wire encoding,
// op-log compaction horizons, sync metrics, convergence during rejoin, and
// the fig9 scaled hierarchy (bench/scaled_hierarchy.h) at a small size.
#include <gtest/gtest.h>

#include "apps/app.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "obs/telemetry.h"
#include "runtime/batch_budget.h"
#include "runtime/replication_graph.h"
#include "runtime/sync_engine.h"
#include "scaled_hierarchy.h"
#include "trace/state_capture.h"

namespace edgstr::core {
namespace {

const char* kCounterServer = R"JS(
var count = 0;
db.query("CREATE TABLE events (n)");
app.post("/bump", function (req, res) {
  count = count + req.params.by;
  db.query("INSERT INTO events (n) VALUES (?)", [count]);
  res.send({ count: count });
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

// A bare replication world: N replica services on a shared network, all
// registered in one graph, with topology left to the test.
struct GraphWorld {
  netsim::Network net{7};
  runtime::ReplicationGraph graph{net};
  std::vector<std::unique_ptr<runtime::ServiceRuntime>> services;
  std::vector<std::shared_ptr<runtime::ReplicaState>> states;

  explicit GraphWorld(std::size_t n) {
    services.push_back(std::make_unique<runtime::ServiceRuntime>(kCounterServer));
    states.push_back(std::make_shared<runtime::ReplicaState>(
        host(0), services[0].get(), std::set<std::string>{}, std::set<std::string>{"*"}));
    const trace::Snapshot snap = services[0]->capture_state();
    states[0]->attach_existing();
    graph.add_endpoint(states[0]);
    for (std::size_t i = 1; i < n; ++i) {
      services.push_back(std::make_unique<runtime::ServiceRuntime>(kCounterServer));
      states.push_back(std::make_shared<runtime::ReplicaState>(
          host(i), services[i].get(), std::set<std::string>{}, std::set<std::string>{"*"}));
      states[i]->initialize_from_snapshot(snap);
      graph.add_endpoint(states[i]);
    }
  }

  static std::string host(std::size_t i) { return "r" + std::to_string(i); }

  void connect(std::size_t a, std::size_t b, const netsim::LinkConfig& cfg) {
    net.connect(host(a), host(b), cfg);
  }
  void link(std::size_t a, std::size_t b) { graph.add_link(host(a), host(b)); }

  int rounds_to_converge(int max_rounds = 16) {
    for (int round = 1; round <= max_rounds; ++round) {
      graph.tick_round();
      net.clock().run();
      if (graph.converged()) return round;
    }
    return -1;
  }
};

// ------------------------------------------------------ graph construction --

// The route filtered_globals() replaced: capture every non-callable global,
// then keep the replicated names ("*" keeps all).
json::Value capture_then_filter(minijs::Interpreter& interp, const std::set<std::string>& names) {
  const json::Value all = trace::capture_globals(interp);
  json::Object out;
  for (const auto& [name, value] : all.as_object()) {
    if (names.count("*") || names.count(name)) out.set(name, value);
  }
  return json::Value(std::move(out));
}

// The globals unit serializes only the replicated globals, yet harvests the
// same JSON as capturing all of them and filtering, for every subject app
// after its workload, for a "*" replica, and for names that are missing,
// builtins, or functions.
TEST(ReplicaGlobalsTest, FilteredGlobalsMatchCaptureThenFilter) {
  for (const apps::SubjectApp* app : apps::all_subject_apps()) {
    SCOPED_TRACE(app->name);
    const http::TrafficRecorder traffic = record_traffic(app->server_source, app->workload);
    const TransformResult t = Pipeline().transform(app->name, app->server_source, traffic);
    ASSERT_TRUE(t.ok) << t.error;
    std::set<std::string> odd = t.replicated_globals;
    odd.insert({"noSuchGlobal", "Math", "db"});
    runtime::ServiceRuntime probe(app->server_source);
    probe.interpreter().globals()->each_local([&](util::Symbol sym, const minijs::JsValue& v) {
      if (v.is_callable()) odd.insert(util::symbol_name(sym));
    });
    for (const std::set<std::string>& names :
         {t.replicated_globals, std::set<std::string>{"*"}, odd}) {
      runtime::ServiceRuntime service(app->server_source);
      runtime::ReplicaState replica("edge0", &service, t.replicated_files, names);
      EXPECT_EQ(replica.filtered_globals().dump(),
                capture_then_filter(service.interpreter(), names).dump());
      for (const http::HttpRequest& req : app->workload) service.handle(req);
      EXPECT_EQ(replica.filtered_globals().dump(),
                capture_then_filter(service.interpreter(), names).dump());
    }
  }
}

TEST(ReplicationGraphTest, RejectsBadLinks) {
  GraphWorld w(2);
  w.connect(0, 1, netsim::LinkConfig::lan());
  w.link(0, 1);
  EXPECT_THROW(w.link(0, 0), std::invalid_argument);            // self link
  EXPECT_THROW(w.link(0, 1), std::invalid_argument);            // duplicate
  EXPECT_THROW(w.link(1, 0), std::invalid_argument);            // duplicate, reversed
  EXPECT_THROW(w.graph.add_link("r0", "nope"), std::invalid_argument);
  EXPECT_EQ(w.graph.link_count(), 1u);
}

TEST(ReplicationGraphTest, DuplicateEndpointRejected) {
  GraphWorld w(1);
  EXPECT_THROW(w.graph.add_endpoint(w.states[0]), std::invalid_argument);
}

// ------------------------------------------------------------------- mesh --

// Satellite: a 4-edge full mesh must converge even with the cloud link cut
// (the edges gossip among themselves; no path goes through r0).
TEST(ReplicationGraphTest, FullMeshConvergesWithCloudLinkCut) {
  GraphWorld w(5);  // r0 = cloud, r1..r4 = edges
  const netsim::LinkConfig lan = netsim::LinkConfig::lan();
  netsim::LinkConfig dead = netsim::LinkConfig::limited_wan();
  dead.loss_probability = 1.0;

  for (std::size_t e = 1; e <= 4; ++e) {
    w.connect(0, e, dead);  // cloud uplinks: 100% loss
    w.link(0, e);
  }
  for (std::size_t a = 1; a <= 4; ++a) {
    for (std::size_t b = a + 1; b <= 4; ++b) {
      w.connect(a, b, lan);
      w.link(a, b);
    }
  }
  EXPECT_EQ(w.graph.link_count(), 4u + 6u);

  for (std::size_t e = 1; e <= 4; ++e) w.services[e]->handle(bump(double(e)));

  // Whole-graph convergence is impossible (cloud is unreachable)...
  EXPECT_EQ(w.rounds_to_converge(4), -1);
  // ...but the island of edges agrees with itself.
  for (std::size_t e = 2; e <= 4; ++e) {
    EXPECT_EQ(w.states[e]->state_digest(), w.states[1]->state_digest()) << "edge " << e;
  }
  EXPECT_NE(w.states[0]->state_digest(), w.states[1]->state_digest());

  // Heal the uplinks: everything converges, cloud included.
  for (std::size_t e = 1; e <= 4; ++e) w.connect(0, e, netsim::LinkConfig::limited_wan());
  EXPECT_GE(w.rounds_to_converge(8), 1);
  // The LWW global holds one winner (all stamps tie; "r4" wins the replica
  // tie-break), while the OR-set table keeps every edge's inserted row.
  http::HttpRequest read;
  read.path = "/read";
  EXPECT_DOUBLE_EQ(w.services[0]->handle(read).response.body["count"].as_number(), 4.0);
  EXPECT_EQ(w.services[0]->database().execute("SELECT * FROM events").rows.size(), 4u);
}

// -------------------------------------------------------------- hierarchy --

// Satellite: two-level tree — cloud -> 2 regionals -> 4 edges. Edge writes
// must reach every replica through two relay hops in bounded rounds.
TEST(ReplicationGraphTest, TwoLevelHierarchyConvergesBounded) {
  GraphWorld w(7);  // r0 cloud, r1/r2 regionals, r3..r6 edges
  const netsim::LinkConfig wan = netsim::LinkConfig::limited_wan();
  const netsim::LinkConfig lan = netsim::LinkConfig::lan();
  for (std::size_t reg = 1; reg <= 2; ++reg) {
    w.connect(0, reg, wan);
    w.link(0, reg);
  }
  // regional r1 serves edges r3, r4; regional r2 serves r5, r6.
  const std::size_t parent[] = {0, 0, 0, 1, 1, 2, 2};
  for (std::size_t e = 3; e <= 6; ++e) {
    w.connect(parent[e], e, lan);
    w.link(parent[e], e);
  }

  for (std::size_t e = 3; e <= 6; ++e) w.services[e]->handle(bump(double(e)));

  // Each hop takes one round: edge->regional, regional->cloud,
  // cloud->other regional, regional->other edges. 2 * depth is the bound.
  const int rounds = w.rounds_to_converge(8);
  ASSERT_GE(rounds, 1);
  EXPECT_LE(rounds, 4);
  // LWW winner is "r6" (stamp tie, replica tie-break); all four inserted
  // rows survive the merge.
  http::HttpRequest read;
  read.path = "/read";
  EXPECT_DOUBLE_EQ(w.services[0]->handle(read).response.body["count"].as_number(), 6.0);
  EXPECT_EQ(w.services[0]->database().execute("SELECT * FROM events").rows.size(), 4u);
}

// The deployment builder wires the same hierarchy from a config.
TEST(ReplicationGraphTest, DeploymentBuildsHierarchyTopology) {
  const apps::SubjectApp& app = apps::sensor_hub();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok) << result.error;

  DeploymentConfig config;
  config.start_sync = false;
  config.topology = SyncTopology::kHierarchy;
  config.hierarchy_fanout = 2;
  config.edge_devices.assign(4, cluster::DeviceProfile::rpi4());
  ThreeTierDeployment three(result, config);

  EXPECT_EQ(three.regional_count(), 2u);
  // cloud + 4 edges + 2 regionals; links: cloud-regional x2, regional-edge x4.
  EXPECT_EQ(three.replication().endpoint_count(), 7u);
  EXPECT_EQ(three.replication().link_count(), 6u);

  http::HttpRequest ingest;
  ingest.verb = http::Verb::kPost;
  ingest.path = "/ingest";
  ingest.params = json::Value::object(
      {{"sensor", "s"}, {"values", json::Value::array({json::Value(1.0)})}});
  three.request_sync(ingest, 0);
  EXPECT_GE(three.sync().sync_until_converged(8), 1);
  EXPECT_TRUE(three.replication().converged());
  EXPECT_EQ(three.regional_state(0).state_digest(), three.cloud_state().state_digest());
  EXPECT_EQ(three.regional_state(1).state_digest(), three.cloud_state().state_digest());
}

// And the star+mesh variant keeps the star links plus all edge pairs.
TEST(ReplicationGraphTest, DeploymentBuildsEdgeMeshTopology) {
  const apps::SubjectApp& app = apps::sensor_hub();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok) << result.error;

  DeploymentConfig config;
  config.start_sync = false;
  config.topology = SyncTopology::kStarEdgeMesh;
  config.edge_devices.assign(3, cluster::DeviceProfile::rpi4());
  ThreeTierDeployment three(result, config);

  EXPECT_EQ(three.replication().endpoint_count(), 4u);
  EXPECT_EQ(three.replication().link_count(), 3u + 3u);  // star + C(3,2) mesh
  EXPECT_TRUE(three.network().connected(edge_host(0), edge_host(2)));
}

// --------------------------------------------------- compaction horizons --

TEST(OpLogCompactionTest, FloorTracksCompactedPrefix) {
  crdt::OpLog log("a");
  for (int i = 0; i < 6; ++i) log.record(log.make_local(json::Value(double(i))));
  EXPECT_TRUE(log.compact_floor().empty());
  EXPECT_EQ(log.compact({{"a", 4}}), 4u);
  EXPECT_EQ(log.compact_floor().at("a"), 4u);
  EXPECT_EQ(log.size(), 2u);
  // Compacting against an older ack is a no-op; the floor never regresses.
  EXPECT_EQ(log.compact({{"a", 2}}), 0u);
  EXPECT_EQ(log.compact_floor().at("a"), 4u);
}

TEST(OpLogCompactionTest, CanServeRespectsFloor) {
  crdt::OpLog log("a");
  for (int i = 0; i < 6; ++i) log.record(log.make_local(json::Value(double(i))));
  log.compact({{"a", 4}});
  EXPECT_TRUE(log.can_serve({{"a", 4}}));   // exactly at the floor
  EXPECT_TRUE(log.can_serve({{"a", 5}}));   // ahead of the floor
  EXPECT_FALSE(log.can_serve({{"a", 3}}));  // behind: ops 4.. exist, 1-3 gone
  EXPECT_FALSE(log.can_serve({}));          // brand-new peer needs a snapshot
}

// A peer behind the compaction floor must be refused outright — serving it
// the surviving suffix would silently skip the compacted ops.
TEST(OpLogCompactionTest, PeerBehindFloorIsRefusedNotServedPartialDelta) {
  GraphWorld w(2);
  w.connect(0, 1, netsim::LinkConfig::lan());
  w.link(0, 1);
  for (int i = 0; i < 4; ++i) w.services[0]->handle(bump(1));
  // The pull direction alternates per round, so the serving round for
  // this direction may be the second one.
  ASSERT_LE(w.rounds_to_converge(), 2);

  // r1 acked everything; compact r0's logs down to the floor.
  const crdt::DocVersions acked = w.states[1]->versions();
  EXPECT_GT(w.states[0]->compact(acked), 0u);

  // A fresh peer (empty version vector) is behind the floor.
  EXPECT_THROW(w.states[0]->collect_changes({}), std::runtime_error);
  // The up-to-date peer is still served fine.
  EXPECT_NO_THROW(w.states[0]->collect_changes(acked));
}

TEST(OpLogCompactionTest, GraphCompactionUsesDirectNeighborAcks) {
  GraphWorld w(3);  // chain: r0 - r1 - r2
  w.connect(0, 1, netsim::LinkConfig::lan());
  w.connect(1, 2, netsim::LinkConfig::lan());
  w.link(0, 1);
  w.link(1, 2);
  w.services[0]->handle(bump(5));
  ASSERT_GE(w.rounds_to_converge(), 1);
  // One more settled round so acks propagate back to every sender.
  w.graph.tick_round();
  w.net.clock().run();

  const std::size_t before =
      w.states[0]->total_op_count() + w.states[1]->total_op_count() + w.states[2]->total_op_count();
  EXPECT_GT(before, 0u);
  EXPECT_GT(w.graph.compact_logs(), 0u);
  const std::size_t after =
      w.states[0]->total_op_count() + w.states[1]->total_op_count() + w.states[2]->total_op_count();
  EXPECT_LT(after, before);
  // Compaction must not disturb convergence or future syncs.
  w.services[2]->handle(bump(3));
  EXPECT_GE(w.rounds_to_converge(), 1);
}

// ------------------------------------------------------------ wire format --

TEST(WireFormatTest, BatchedEncodingRoundTrips) {
  crdt::OpLog log("edge0");
  for (int i = 0; i < 8; ++i) {
    log.record(log.make_local(json::Value::object(
        {{"k", "row" + std::to_string(i)}, {"v", double(i)}})));
  }
  crdt::SyncMessage msg;
  msg.from = "edge0";
  msg.versions["tables"] = log.version();
  msg.ops["tables"] = log.changes_since({});

  const json::Value wire = crdt::encode_message(msg);
  const crdt::SyncMessage back = crdt::decode_message(wire);
  EXPECT_EQ(back.from, msg.from);
  EXPECT_EQ(back.versions, msg.versions);
  ASSERT_EQ(back.ops.at("tables").size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const crdt::Op& a = msg.ops.at("tables")[i];
    const crdt::Op& b = back.ops.at("tables")[i];
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_TRUE(a.stamp == b.stamp);
    EXPECT_EQ(a.payload().dump(), b.payload().dump());
  }
}

TEST(WireFormatTest, RoundTripsMultiOriginRunsAndForeignStamps) {
  // Ops relayed by a middle hop: two origins interleaved, plus one op whose
  // stamp replica differs from its origin (the "r" fallback path).
  crdt::SyncMessage msg;
  msg.from = "relay";
  crdt::Op odd;
  odd.origin = "a";
  odd.seq = 1;
  odd.stamp = {9, "weird"};
  odd.set_payload(json::Value("x"));
  msg.ops["tables"].push_back(odd);
  crdt::Op b1;
  b1.origin = "b";
  b1.seq = 5;
  b1.stamp = {11, "b"};
  b1.set_payload(json::Value("y"));
  msg.ops["tables"].push_back(b1);
  msg.versions["tables"] = {{"a", 1}, {"b", 5}};

  const crdt::SyncMessage back = crdt::decode_message(crdt::encode_message(msg));
  ASSERT_EQ(back.ops.at("tables").size(), 2u);
  EXPECT_TRUE(back.ops.at("tables")[0].stamp == (crdt::Stamp{9, "weird"}));
  EXPECT_TRUE(back.ops.at("tables")[1].stamp == (crdt::Stamp{11, "b"}));
  EXPECT_EQ(back.ops.at("tables")[1].seq, 5u);
}

TEST(WireFormatTest, OpWireSizeIsCachedAndStable) {
  crdt::OpLog log("e");
  const crdt::Op op = log.make_local(json::Value::object({{"k", "v"}}));
  const std::uint64_t first = op.wire_size();
  EXPECT_EQ(first, op.to_json().wire_size());
  EXPECT_EQ(op.wire_size(), first);  // cached path (asserts internally)
}

// ---------------------------------------------------------------- metrics --

TEST(SyncMetricsTest, PerDocAndPerEndpointCountersAccumulate) {
  GraphWorld w(2);
  w.connect(0, 1, netsim::LinkConfig::lan());
  w.link(0, 1);
  w.services[1]->handle(bump(4));
  ASSERT_EQ(w.rounds_to_converge(), 1);

  util::MetricsRegistry& m = w.graph.metrics();
  EXPECT_GE(m.value("sync.rounds"), 1.0);
  EXPECT_GE(m.value("sync.messages"), 2.0);  // both directions
  EXPECT_GT(m.value("sync.bytes.wire"), 0.0);
  // The wire total splits by kind; digests ride alongside the op payloads.
  EXPECT_GT(m.value("sync.bytes.wire.ops"), 0.0);
  EXPECT_GT(m.value("sync.bytes.wire.digest"), 0.0);
  // r1 executed the write, so its shipped-op counters are non-zero.
  EXPECT_GT(m.sum("sync.ops_shipped.r1."), 0.0);
  EXPECT_GT(m.sum("sync.bytes.doc."), 0.0);

  w.graph.reset_traffic_stats();
  EXPECT_EQ(m.value("sync.bytes.wire"), 0.0);
  EXPECT_EQ(m.value("sync.messages"), 0.0);
  EXPECT_GE(m.value("sync.rounds"), 1.0);  // rounds survive a traffic reset
}

// ---------------------------------------------------- digest anti-entropy --

TEST(DigestSyncTest, QuiescentRoundsAreAllDigestHits) {
  GraphWorld w(2);
  w.connect(0, 1, netsim::LinkConfig::lan());
  w.link(0, 1);
  w.services[1]->handle(bump(2));
  ASSERT_GE(w.rounds_to_converge(), 1);

  util::MetricsRegistry& m = w.graph.metrics();
  EXPECT_GT(m.value("sync.digest.miss"), 0.0);  // the write had to ship

  // Converged and quiet: every further digest is a hit, and not one op
  // byte moves — the whole point of asking before pushing.
  const double ops_bytes = m.value("sync.bytes.wire.ops");
  const double hits = m.value("sync.digest.hit");
  for (int i = 0; i < 3; ++i) {
    w.graph.tick_round();
    w.net.clock().run();
  }
  EXPECT_EQ(m.value("sync.bytes.wire.ops"), ops_bytes);
  // One digest per link per round (the pull direction alternates).
  EXPECT_GE(m.value("sync.digest.hit"), hits + 3.0);
}

TEST(DigestSyncTest, MeshDigestsReportAvoidedRetransmission) {
  GraphWorld w(4);
  const netsim::LinkConfig lan = netsim::LinkConfig::lan();
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      w.connect(a, b, lan);
      w.link(a, b);
    }
  }
  for (std::size_t i = 0; i < 4; ++i) w.services[i]->handle(bump(double(i + 1)));
  ASSERT_GE(w.rounds_to_converge(), 1);

  // Next round every ack cache is one round stale (it predates the ops
  // that arrived via the other five links), yet nothing is resent: each
  // digest proves the cross-path deliveries present, so not one op byte
  // moves.
  util::MetricsRegistry& m = w.graph.metrics();
  const double ops_bytes = m.value("sync.bytes.wire.ops");
  w.graph.tick_round();
  w.net.clock().run();
  EXPECT_EQ(m.value("sync.bytes.wire.ops"), ops_bytes);
  EXPECT_GT(m.value("sync.digest.hit"), 0.0);
  EXPECT_GT(m.value("sync.digest.miss"), 0.0);
}

TEST(DigestSyncTest, ForcedTinyBudgetSplitsDeltaAcrossRounds) {
  GraphWorld w(2);
  w.connect(0, 1, netsim::LinkConfig::lan());
  runtime::SyncLink& link = w.graph.add_link("r0", "r1");
  // Pin r1's replies (it serves r0's digests) to the smallest rung so the
  // backlog must travel as resumable truncated prefixes.
  link.budget_from("r1").force_budget(runtime::BatchBudget::ladder().front());
  for (int i = 0; i < 60; ++i) w.services[1]->handle(bump(1));

  ASSERT_GE(w.rounds_to_converge(32), 2);
  util::MetricsRegistry& m = w.graph.metrics();
  EXPECT_GT(m.value("sync.batch.splits"), 0.0);

  // The resumed prefixes reassemble the exact backlog.
  http::HttpRequest read;
  read.path = "/read";
  EXPECT_DOUBLE_EQ(w.services[0]->handle(read).response.body["count"].as_number(), 60.0);
  EXPECT_EQ(w.services[0]->database().execute("SELECT * FROM events").rows.size(), 60u);
}

// ----------------------------------------------------------- batch budget --

TEST(BatchBudgetTest, CleanRoundsClimbTheLadder) {
  runtime::BatchBudget b(0);
  double t = 0;
  for (int round = 0; round < 3; ++round) {
    b.on_send(t);
    b.on_delivery(t + 0.01);
    t += 1.0;
    EXPECT_EQ(b.begin_round(t), 0u);
  }
  EXPECT_EQ(b.index(), 3u);
}

TEST(BatchBudgetTest, LossDropsTwoRungsAndIsCounted) {
  runtime::BatchBudget b(5);
  b.on_send(0.0);  // never delivered
  EXPECT_EQ(b.begin_round(100.0), 1u);
  EXPECT_EQ(b.index(), 3u);
  EXPECT_EQ(b.total_losses(), 1u);
}

TEST(BatchBudgetTest, LatencySpikeDropsOneRung) {
  runtime::BatchBudget b(5);
  double t = 0;
  for (int i = 0; i < 4; ++i) {  // settle the EWMA around 10ms
    b.on_send(t);
    b.on_delivery(t + 0.01);
    t += 1.0;
    b.begin_round(t);
  }
  const std::size_t before = b.index();
  b.on_send(t);
  b.on_delivery(t + 0.5);  // 50x the observed baseline
  b.begin_round(t + 1.0);
  EXPECT_EQ(b.index(), before - 1);
}

TEST(BatchBudgetTest, ForceBudgetPinsTheLadderAgainstIncrease) {
  runtime::BatchBudget b;
  b.force_budget(1024);
  EXPECT_EQ(b.budget(), 1024u);
  double t = 0;
  for (int round = 0; round < 5; ++round) {
    b.on_send(t);
    b.on_delivery(t + 0.01);
    t += 1.0;
    b.begin_round(t);
  }
  EXPECT_EQ(b.budget(), 1024u);  // clean rounds cannot climb past the pin
}

TEST(SyncMetricsTest, StalenessGaugeTracksDivergedEndpoints) {
  GraphWorld w(2);
  obs::Telemetry telemetry(&w.net.clock());
  w.graph.set_telemetry(&telemetry);
  netsim::LinkConfig dead = netsim::LinkConfig::lan();
  dead.loss_probability = 1.0;
  w.connect(0, 1, dead);
  w.link(0, 1);
  w.services[1]->handle(bump(1));
  // A lost digest schedules nothing, so each dead round also lets one
  // simulated second pass.
  double previous = -1;
  for (int i = 0; i < 3; ++i) {
    w.graph.tick_round();
    w.net.clock().schedule(1.0, [] {});
    w.net.clock().run();
    const double stale = w.graph.metrics().value("sync.staleness.seconds.r1");
    EXPECT_GT(stale, previous) << "round " << i;
    previous = stale;
  }
  EXPECT_GT(previous, 0.0);

  w.connect(0, 1, netsim::LinkConfig::lan());
  ASSERT_GE(w.rounds_to_converge(4), 1);
  // The gauge is sampled at the end of a tick, before its deliveries
  // drain: the tick after convergence is the first to see the healed state.
  w.graph.tick_round();
  w.net.clock().run();
  EXPECT_EQ(w.graph.metrics().value("sync.staleness.seconds.r1"), 0.0);
}

// ------------------------------------------------------ rejoin convergence --

// A restarted edge that cannot reach any neighbor is still rejoining: it is
// not serving and its state lags the cloud's, so the graph has not
// converged. Once the partition heals, the rejoin lands and the same query
// turns green.
TEST(RejoinConvergenceTest, PartitionedRejoinIsNotConverged) {
  const apps::SubjectApp& app = apps::sensor_hub();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok) << result.error;

  DeploymentConfig config;
  config.start_sync = false;
  ThreeTierDeployment three(result, config);

  http::HttpRequest ingest;
  ingest.verb = http::Verb::kPost;
  ingest.path = "/ingest";
  ingest.params = json::Value::object(
      {{"sensor", "s"}, {"values", json::Value::array({json::Value(1.0)})}});
  three.crash_edge(0);
  ASSERT_TRUE(three.request_sync(ingest, 0).ok());  // forwarded; the cloud acks it
  three.network().partition("rejoin-cut", {edge_host(0)}, {kCloudHost});
  three.restart_edge(0);

  EXPECT_EQ(three.sync().sync_until_converged(8), -1);
  EXPECT_FALSE(three.replication().converged());
  EXPECT_FALSE(three.edge_serving(0));

  three.network().heal("rejoin-cut");
  EXPECT_GE(three.sync().sync_until_converged(8), 1);
  EXPECT_TRUE(three.replication().converged());
  EXPECT_TRUE(three.edge_serving(0));
  EXPECT_EQ(three.edge_state(0).state_digest(), three.cloud_state().state_digest());
}

// ---------------------------------------------------------- graph hierarchy --

/// Per-unit state hashes — what ReplicationGraph::converged() compares.
std::vector<std::uint64_t> unit_hashes(const runtime::ReplicaState& replica) {
  std::vector<std::uint64_t> out;
  for (const runtime::DocUnit& unit : replica.docs()) out.push_back(unit.doc->state_hash());
  return out;
}

/// The fig9 scaled scenario, shrunk: 8 edges under 2 regionals, 3 rounds
/// of 4 inserts per edge. Returns the graph's sync metrics text.
std::string run_small_hierarchy() {
  bench::ScaledHierarchy world(/*edges=*/8, /*fanout=*/4);
  world.drive(/*rounds=*/3, /*ops_per_edge=*/4);
  EXPECT_GE(world.rounds_to_converge(), 1);
  EXPECT_EQ(world.cloud().tables().live_rows(), 8u * 3u * 4u);  // every insert reached the cloud
  const std::vector<std::uint64_t> cloud = unit_hashes(world.cloud());
  for (const std::string& edge : world.edge_ids()) {
    EXPECT_EQ(unit_hashes(world.graph().endpoint(edge)), cloud) << edge;
  }
  return world.graph().metrics().format();
}

TEST(GraphHierarchyTest, EveryEdgeConvergesToTheCloud) { run_small_hierarchy(); }

// The graph's whole sync metrics registry — bytes and ops per endpoint and
// doc, digest hits, batch budgets — is the same, byte for byte, on a rerun.
TEST(GraphHierarchyTest, RerunIsByteIdentical) {
  const std::string first = run_small_hierarchy();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(run_small_hierarchy(), first);
}

}  // namespace
}  // namespace edgstr::core
