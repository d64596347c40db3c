// Snapshot-shipped cold-start bootstrap: consistent per-doc snapshots
// (cut/install equivalence for every doc type), the kSnapshot wire kind
// (roundtrip + hostile inputs), stale-snapshot rejection, and the
// deployment-level claim that a snapshot+tail rejoin reaches the exact
// same converged state as full op replay — on every topology, and across
// mid-bootstrap link loss.
#include <gtest/gtest.h>

#include <string>

#include "apps/app.h"
#include "crdt/files.h"
#include "crdt/json_doc.h"
#include "crdt/snapshot.h"
#include "crdt/table.h"
#include "crdt/wire.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "runtime/replica_state.h"
#include "runtime/service_runtime.h"

namespace edgstr::core {
namespace {

// ------------------------------------------------- doc-level cut/install --

TEST(SnapshotCutInstallTest, JsonDocSnapshotReproducesStateAndVersion) {
  crdt::CrdtJson a("a"), b("b");
  const json::Value base = json::Value::object({{"count", 0}});
  a.initialize(base);
  b.initialize(base);
  for (int i = 1; i <= 20; ++i) a.set("count", json::Value(double(i)));
  a.set("mode", json::Value("live"));

  const crdt::Snapshot snap = a.cut_snapshot();
  EXPECT_EQ(snap.covered, a.version());
  b.install_snapshot(snap);
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(b.version(), snap.covered);
  EXPECT_EQ(*b.get("count"), json::Value(20.0));

  // The installer resumes cleanly past the snapshot: later ops from the
  // cutter apply as a plain delta.
  a.set("count", json::Value(21.0));
  EXPECT_EQ(b.applyChanges(a.getChanges(b.version())), 1u);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(SnapshotCutInstallTest, TableSnapshotReproducesRowsAndIdentities) {
  sqldb::Database seed;
  seed.execute("CREATE TABLE t (k, v)");
  seed.execute("INSERT INTO t (k, v) VALUES ('base', 0)");
  const json::Value db_snapshot = seed.snapshot();

  sqldb::Database da, db_;
  crdt::CrdtTable a("a", &da), b("b", &db_);
  a.initialize(db_snapshot);
  b.initialize(db_snapshot);
  da.execute("INSERT INTO t (k, v) VALUES ('x', 1)");
  da.execute("UPDATE t SET v = 100 WHERE k = 'base'");
  da.execute("INSERT INTO t (k, v) VALUES ('y', 2)");
  da.execute("DELETE FROM t WHERE k = 'x'");
  a.record_local_mutations();

  b.install_snapshot(a.cut_snapshot());
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(db_.execute("SELECT * FROM t").rows.size(), 2u);  // base + y
  EXPECT_EQ(db_.execute("SELECT v FROM t WHERE k = 'base'").rows[0][0].as_int(), 100);

  // Row identities survive the snapshot: a later update shipped as a delta
  // must land on the same row, not fork a duplicate.
  da.execute("UPDATE t SET v = 7 WHERE k = 'y'");
  a.record_local_mutations();
  b.applyChanges(a.getChanges(b.version()));
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(db_.execute("SELECT v FROM t WHERE k = 'y'").rows[0][0].as_int(), 7);
}

TEST(SnapshotCutInstallTest, FilesSnapshotReproducesTreeState) {
  vfs::Vfs fa, fb;
  fa.write("data/log.txt", "init");
  const json::Value snap_fs = fa.snapshot();
  crdt::CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap_fs);
  b.initialize(snap_fs);
  fa.write("data/log.txt", "updated");
  fa.write("data/new.txt", "fresh");
  a.record_local_changes();

  b.install_snapshot(a.cut_snapshot());
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(fb.read("data/log.txt"), "updated");
  EXPECT_EQ(fb.read("data/new.txt"), "fresh");

  fa.remove("data/new.txt");
  a.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  EXPECT_FALSE(fb.exists("data/new.txt"));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(SnapshotCutInstallTest, SnapshotShedsHistoryTheBootstrapStateDrags) {
  // The size claim behind the whole feature, in miniature: overwrite one
  // key many times and the op history dwarfs the live state. The snapshot
  // serializes the state only; bootstrap_state() carries the retained log.
  crdt::CrdtJson a("a");
  a.initialize(json::Value::object({}));
  for (int i = 0; i < 200; ++i) a.set("hot", json::Value(double(i)));
  const std::size_t snapshot_bytes = a.cut_snapshot().to_json().dump().size();
  const std::size_t bootstrap_bytes = a.bootstrap_state().dump().size();
  EXPECT_LT(snapshot_bytes * 10, bootstrap_bytes)
      << "snapshot=" << snapshot_bytes << " bootstrap=" << bootstrap_bytes;
}

// ------------------------------------------------------ kSnapshot codec --

TEST(SnapshotWireTest, RoundtripsSnapshotsAndTailOps) {
  crdt::CrdtJson a("e0");
  a.initialize(json::Value::object({}));
  a.set("k1", json::Value(1.0));
  a.set("k2", json::Value(2.0));
  const crdt::Snapshot snap = a.cut_snapshot();
  a.set("k3", json::Value(3.0));  // the tail past the cut

  crdt::SyncMessage msg;
  msg.kind = crdt::SyncKind::kSnapshot;
  msg.from = "e0";
  msg.rejoin = true;
  msg.versions["globals"] = a.version();
  msg.snapshot = json::Value::object({{"globals", snap.to_json()}});
  msg.ops["globals"] = a.getChanges(snap.covered);
  ASSERT_EQ(msg.ops["globals"].size(), 1u);

  const crdt::SyncMessage decoded = crdt::decode_message(crdt::encode_message(msg));
  EXPECT_EQ(decoded.kind, crdt::SyncKind::kSnapshot);
  EXPECT_EQ(decoded.from, "e0");
  EXPECT_TRUE(decoded.rejoin);
  EXPECT_EQ(decoded.versions, msg.versions);
  EXPECT_EQ(decoded.snapshot.dump(), msg.snapshot.dump());
  ASSERT_EQ(decoded.op_count(), 1u);
  EXPECT_EQ(decoded.ops.at("globals")[0].seq, msg.ops.at("globals")[0].seq);
  EXPECT_EQ(decoded.ops.at("globals")[0].payload().dump(), msg.ops.at("globals")[0].payload().dump());

  // The verified snapshot reinstalls from the decoded bytes.
  crdt::CrdtJson b("e1");
  b.initialize(json::Value::object({}));
  b.install_snapshot(crdt::Snapshot::from_json(decoded.snapshot["globals"]));
  b.applyChanges(decoded.ops.at("globals"));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(SnapshotWireTest, HostileWireIsRejectedBeforeApply) {
  crdt::CrdtJson a("e0");
  a.initialize(json::Value::object({{"x", 1}}));
  crdt::SyncMessage msg;
  msg.kind = crdt::SyncKind::kSnapshot;
  msg.from = "e0";
  msg.versions["globals"] = a.version();
  msg.snapshot = json::Value::object({{"globals", a.cut_snapshot().to_json()}});
  const json::Value wire = crdt::encode_message(msg);

  // Kind confusion: a snapshot frame smuggling a bootstrap payload.
  json::Value confused = wire;
  confused.as_object().set("b", json::Value::object({}));
  EXPECT_THROW(crdt::decode_message(confused), crdt::WireError);

  // A snapshot message whose payload is not an object.
  json::Value scalar = wire;
  scalar.as_object().set("sn", json::Value(42.0));
  EXPECT_THROW(crdt::decode_message(scalar), crdt::WireError);

  // A per-doc entry missing its digest field: structurally rejected.
  json::Value undigested = wire;
  json::Value entry = undigested["sn"]["globals"];
  entry.as_object().erase("dig");
  undigested.as_object().set("sn", json::Value::object({{"globals", entry}}));
  EXPECT_THROW(crdt::decode_message(undigested), crdt::WireError);

  // An unknown kind tag.
  json::Value unknown = wire;
  unknown.as_object().set("k", json::Value("snapshotish"));
  EXPECT_THROW(crdt::decode_message(unknown), crdt::WireError);
}

TEST(SnapshotWireTest, TamperedContentDigestRefusesToInstall) {
  crdt::CrdtJson a("e0");
  a.initialize(json::Value::object({}));
  a.set("balance", json::Value(100.0));
  json::Value encoded = a.cut_snapshot().to_json();
  // Flip the state after the digest was stamped: a torn disk record or a
  // tampered wire frame. from_json must refuse it outright.
  json::Value state = encoded["state"];
  encoded.as_object().set("state", json::Value::object({{"balance", json::Value(1e6)}}));
  EXPECT_THROW(crdt::Snapshot::from_json(encoded), std::runtime_error);
  // Restoring the genuine state verifies again.
  encoded.as_object().set("state", state);
  EXPECT_NO_THROW(crdt::Snapshot::from_json(encoded));
}

// ------------------------------------------------- replica-level install --

const char* kCounterServer = R"JS(
var count = 0;
app.post("/bump", function (req, res) {
  count = count + req.params.by;
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

TEST(SnapshotInstallTest, StaleSnapshotIsSkippedNotInstalled) {
  runtime::ServiceRuntime svc_a(kCounterServer), svc_b(kCounterServer);
  runtime::ReplicaState a("a", &svc_a, {}, {"*"});
  runtime::ReplicaState b("b", &svc_b, {}, {"*"});
  a.attach_existing();
  b.initialize_from_snapshot(svc_a.capture_state());

  svc_a.handle(bump(1));
  svc_a.handle(bump(2));
  a.record_local();

  // b is still at the baseline; its snapshot is strictly behind what a
  // holds. Installing it would silently destroy a's (possibly durable,
  // just-recovered) ops — the guard must skip the stale units and leave
  // a's state untouched (skip, not throw: a multi-unit message from a
  // legitimate responder can be stale on one unit and needed on another).
  const std::string before = a.state_digest();
  const crdt::SyncMessage stale = b.collect_snapshot_bootstrap();
  a.install_snapshot_message(stale);
  EXPECT_EQ(a.state_digest(), before);

  // The forward direction installs cleanly and converges the pair.
  const crdt::SyncMessage fresh = a.collect_snapshot_bootstrap();
  b.install_snapshot_message(fresh);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

// ------------------------------------------- deployment-level equivalence --

class BootstrapFixture : public ::testing::Test {
 protected:
  BootstrapFixture() {
    const apps::SubjectApp& app = apps::sensor_hub();
    const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
    result_ = Pipeline().transform(app.name, app.server_source, traffic);
    EXPECT_TRUE(result_.ok) << result_.error;
  }

  http::HttpRequest ingest(const std::string& sensor, double value) {
    http::HttpRequest req;
    req.verb = http::Verb::kPost;
    req.path = "/ingest";
    req.params = json::Value::object(
        {{"sensor", sensor}, {"values", json::Value::array({value})}});
    return req;
  }

  http::HttpRequest summary(const std::string& sensor) {
    http::HttpRequest req;
    req.verb = http::Verb::kGet;
    req.path = "/summary";
    req.params = json::Value::object({{"sensor", sensor}});
    return req;
  }

  struct RejoinOutcome {
    std::string edge_digest;
    std::string cloud_digest;
    double snapshot_rejoins = 0;
    double replay_rejoins = 0;  // delta + full-bootstrap rejoins
  };

  /// One compaction-forced rejoin: converge, compact every log past the
  /// reborn edge's checkpoint, crash edge 1, write more, restart, converge.
  RejoinOutcome run_rejoin(SyncTopology topology, std::uint64_t snapshot_ops) {
    DeploymentConfig config;
    config.start_sync = false;
    config.topology = topology;
    config.edge_devices = {cluster::DeviceProfile::rpi4(), cluster::DeviceProfile::rpi4()};
    config.bootstrap_snapshot_ops = snapshot_ops;
    ThreeTierDeployment three(result_, config);

    EXPECT_TRUE(three.request_sync(ingest("alpha", 1), 0).ok());
    EXPECT_TRUE(three.request_sync(ingest("beta", 2), 1).ok());
    EXPECT_GE(three.sync().sync_until_converged(16), 1);
    three.sync().compact_logs();
    three.crash_edge(1);
    EXPECT_TRUE(three.request_sync(ingest("gamma", 3), 0).ok());
    three.restart_edge(1);
    EXPECT_GE(three.sync().sync_until_converged(32), 1);
    EXPECT_TRUE(three.edge_serving(1));
    EXPECT_TRUE(three.replication().converged());
    // The rejoined edge serves the full post-crash history.
    EXPECT_DOUBLE_EQ(three.request_sync(summary("gamma"), 1).body["count"].as_number(), 1.0);

    RejoinOutcome out;
    out.edge_digest = three.edge_state(1).state_digest();
    out.cloud_digest = three.cloud_state().state_digest();
    util::MetricsRegistry& m = three.replication().metrics();
    out.snapshot_rejoins = m.value("sync.rejoins.snapshot");
    out.replay_rejoins = m.value("sync.rejoins.delta") + m.value("sync.rejoins.bootstrap");
    return out;
  }

  TransformResult result_;
};

TEST_F(BootstrapFixture, SnapshotAndReplayRejoinsConvergeIdenticallyOnEveryTopology) {
  for (const SyncTopology topology :
       {SyncTopology::kStar, SyncTopology::kStarEdgeMesh, SyncTopology::kHierarchy}) {
    // threshold 1: any gap ships snapshot+tail; threshold 0: replay only.
    const RejoinOutcome snapshot = run_rejoin(topology, 1);
    const RejoinOutcome replay = run_rejoin(topology, 0);

    EXPECT_GE(snapshot.snapshot_rejoins, 1.0) << "topology " << int(topology);
    EXPECT_EQ(replay.snapshot_rejoins, 0.0) << "topology " << int(topology);
    EXPECT_GE(replay.replay_rejoins, 1.0) << "topology " << int(topology);

    // The whole point: both rejoin paths land on the same converged state.
    EXPECT_EQ(snapshot.edge_digest, replay.edge_digest) << "topology " << int(topology);
    EXPECT_EQ(snapshot.cloud_digest, replay.cloud_digest) << "topology " << int(topology);
    EXPECT_EQ(snapshot.edge_digest, snapshot.cloud_digest) << "topology " << int(topology);
  }
}

TEST_F(BootstrapFixture, MidBootstrapLinkLossRetriesUntilTheSnapshotLands) {
  DeploymentConfig config;
  config.start_sync = false;
  config.bootstrap_snapshot_ops = 1;
  ThreeTierDeployment three(result_, config);

  EXPECT_TRUE(three.request_sync(ingest("pre", 1), 0).ok());
  EXPECT_GE(three.sync().sync_until_converged(16), 1);
  three.sync().compact_logs();
  three.crash_edge(0);
  three.restart_edge(0);

  // Cut the WAN before the first rejoin round: every snapshot offer is
  // lost in flight, and the edge must stay parked rather than serve stale.
  three.network().partition("mid-bootstrap", {edge_host(0)}, {kCloudHost});
  for (int i = 0; i < 4; ++i) {
    three.sync().tick();
    three.network().clock().run();
  }
  EXPECT_FALSE(three.edge_serving(0));

  three.network().heal("mid-bootstrap");
  EXPECT_GE(three.sync().sync_until_converged(32), 1);
  EXPECT_TRUE(three.edge_serving(0));
  EXPECT_EQ(three.edge_state(0).state_digest(), three.cloud_state().state_digest());
  EXPECT_GE(three.replication().metrics().value("sync.rejoins.snapshot"), 1.0);
  EXPECT_DOUBLE_EQ(three.request_sync(summary("pre"), 0).body["count"].as_number(), 1.0);
}

TEST_F(BootstrapFixture, BootstrapMetricsTrackTheRecovery) {
  DeploymentConfig config;
  config.start_sync = false;
  config.bootstrap_snapshot_ops = 1;
  ThreeTierDeployment three(result_, config);

  EXPECT_TRUE(three.request_sync(ingest("m", 5), 0).ok());
  EXPECT_GE(three.sync().sync_until_converged(16), 1);
  three.sync().compact_logs();
  three.crash_edge(0);
  three.restart_edge(0);
  EXPECT_GE(three.sync().sync_until_converged(32), 1);

  util::MetricsRegistry& m = three.replication().metrics();
  EXPECT_GE(m.value("sync.rejoins.snapshot"), 1.0);
  EXPECT_GT(m.value("bootstrap.snapshot.bytes"), 0.0);
}

}  // namespace
}  // namespace edgstr::core
