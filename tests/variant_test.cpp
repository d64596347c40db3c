// Online multi-variant divergence checking (runtime::VariantHarness).
//
// The harness's job is to notice when two engine variants disagree about
// the same request. A detector is only trustworthy if it (a) stays silent
// on a correct system and (b) actually fires on a broken one — so these
// tests drive both directions: clean cross-checks over mixed read/write
// traffic must produce zero divergences, and a deliberately planted
// semantic fault (a test-only hook that skews the legacy shadow's data on
// every replay) must be flagged with the offending request and the
// RW-log delta attached.
#include <gtest/gtest.h>

#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "apps/app.h"
#include "runtime/replica_state.h"
#include "runtime/service_runtime.h"
#include "runtime/variant_harness.h"

namespace edgstr::runtime {
namespace {

constexpr const char* kService = R"JS(
db.query("CREATE TABLE readings (sensor, value)");
app.post("/ingest", function (req, res) {
  db.query("INSERT INTO readings (sensor, value) VALUES (?, ?)",
           [req.params.sensor, req.params.value]);
  res.send({ ok: 1 });
});
app.get("/summary", function (req, res) {
  var rows = db.query("SELECT sensor, value FROM readings");
  var total = 0;
  for (var i = 0; i < rows.length; i++) total += rows[i].value;
  res.send({ count: rows.length, total: total });
});
)JS";

http::HttpRequest ingest(const std::string& sensor, double value) {
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/ingest";
  req.params = json::Value::object({{"sensor", sensor}, {"value", value}});
  return req;
}

http::HttpRequest summary() {
  http::HttpRequest req;
  req.path = "/summary";
  return req;
}

/// fast (resolver on) + legacy (tree-walker), optionally with a fault
/// planted on the legacy shadow.
std::unique_ptr<VariantHarness> make_harness(std::function<void(ServiceRuntime&)> fault = {}) {
  std::vector<VariantSpec> specs(2);
  specs[0].name = "fast";
  specs[0].config.resolve = true;
  specs[1].name = "legacy";
  specs[1].config.resolve = false;
  specs[1].test_fault = std::move(fault);
  return std::make_unique<VariantHarness>(kService, std::move(specs));
}

TEST(VariantHarnessTest, CleanVariantsAgreeOnEveryRequest) {
  ServiceRuntime primary(kService);
  auto harness = make_harness();
  primary.set_variant_harness(harness.get());

  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(primary.handle(ingest("s" + std::to_string(i % 3), 10.0 * i)).failed);
    EXPECT_FALSE(primary.handle(summary()).failed);
  }
  EXPECT_EQ(harness->checks(), 12u);
  EXPECT_TRUE(harness->divergences().empty())
      << harness->divergences().front().kind << ": " << harness->divergences().front().detail;
}

TEST(VariantHarnessTest, FailedRequestsStillAgree) {
  ServiceRuntime primary(kService);
  auto harness = make_harness();
  primary.set_variant_harness(harness.get());
  http::HttpRequest missing;
  missing.path = "/nope";
  EXPECT_TRUE(primary.handle(missing).response.status == 404 ||
              primary.handle(missing).failed);
  EXPECT_TRUE(harness->divergences().empty());
}

TEST(VariantHarnessTest, PlantedSemanticFaultIsFlaggedWithRequestAndDelta) {
  ServiceRuntime primary(kService);
  // The fault skews every reading to 999999 on the legacy shadow after
  // each sync from the primary — any /summary over non-empty data must
  // diverge in both the response and the RW-log.
  auto harness = make_harness([](ServiceRuntime& rt) {
    rt.database().execute("UPDATE readings SET value = 999999");
  });
  primary.set_variant_harness(harness.get());

  ASSERT_FALSE(primary.handle(ingest("s0", 21.0)).failed);
  const std::size_t before = harness->divergences().size();
  ASSERT_FALSE(primary.handle(summary()).failed);
  ASSERT_GT(harness->divergences().size(), before) << "fault not detected";

  bool saw_response = false, saw_rwlog = false;
  for (const Divergence& d : harness->divergences()) {
    EXPECT_EQ(d.variant, "legacy");
    // Every divergence names the offending request.
    EXPECT_EQ(d.request.path, "/summary");
    EXPECT_FALSE(d.detail.empty());
    if (d.kind == "response") {
      saw_response = true;
      // The detail carries the disagreeing bodies (999999 visible).
      EXPECT_NE(d.detail.find("999999"), std::string::npos) << d.detail;
    }
    if (d.kind == "rwlog") saw_rwlog = true;
  }
  EXPECT_TRUE(saw_response);
  EXPECT_TRUE(saw_rwlog) << "RW-log delta missing from the divergence report";
}

TEST(VariantHarnessTest, DetachedHarnessCostsNothing) {
  ServiceRuntime primary(kService);
  EXPECT_EQ(primary.variant_harness(), nullptr);
  EXPECT_FALSE(primary.handle(ingest("s0", 1.0)).failed);
}

// A service with all three replication units: a table, a file, a global.
constexpr const char* kUnitsService = R"JS(
db.query("CREATE TABLE readings (sensor, value)");
fs.writeFile("data/last.txt", "none");
var tally = 0;
app.post("/ingest", function (req, res) {
  db.query("INSERT INTO readings (sensor, value) VALUES (?, ?)",
           [req.params.sensor, req.params.value]);
  tally = tally + 1;
  fs.writeFile("data/last.txt", req.params.sensor);
  res.send({ ok: 1 });
});
app.get("/state", function (req, res) {
  var rows = db.query("SELECT sensor, value FROM readings");
  res.send({ count: rows.length, tally: tally, last: fs.readFile("data/last.txt") });
});
)JS";

http::HttpRequest state() {
  http::HttpRequest req;
  req.path = "/state";
  return req;
}

/// fast, legacy and vm shadows, each running `probe` after every sync.
std::unique_ptr<VariantHarness> make_probed_harness(const std::string& source,
                                                    std::function<void(ServiceRuntime&)> probe) {
  std::vector<VariantSpec> specs(3);
  specs[0].name = "fast";
  specs[0].config.resolve = true;
  specs[1].name = "legacy";
  specs[1].config.resolve = false;
  specs[2].name = "vm";
  specs[2].config.vm = true;
  for (VariantSpec& spec : specs) spec.test_fault = probe;
  return std::make_unique<VariantHarness>(source, std::move(specs));
}

/// Whether `shadow` holds exactly `primary`'s state, table stamps included.
bool same_state(ServiceRuntime& shadow, ServiceRuntime& primary) {
  for (const std::string& name : primary.database().table_names()) {
    if (shadow.database().table_epoch(name) != primary.database().table_epoch(name)) return false;
  }
  return shadow.database() == primary.database() &&
         shadow.filesystem() == primary.filesystem() &&
         trace::capture_globals(shadow.interpreter()) ==
             trace::capture_globals(primary.interpreter());
}

TEST(VariantHarnessTest, ReplicaChangedByACrdtMergeIsSeenOnTheNextRead) {
  ServiceRuntime primary(kUnitsService), peer(kUnitsService);
  std::size_t probes = 0, synced = 0;
  auto harness = make_probed_harness(kUnitsService, [&](ServiceRuntime& shadow) {
    ++probes;
    synced += same_state(shadow, primary);
  });
  primary.set_variant_harness(harness.get());
  ReplicaState p("p", &primary, {"data/last.txt"}, {"*"});
  ReplicaState q("q", &peer, {"data/last.txt"}, {"*"});
  p.attach_existing();
  q.initialize_from_snapshot(primary.capture_state());

  // A first check leaves every shadow at the primary's stamps.
  EXPECT_FALSE(primary.handle(state()).failed);

  // A row, a file and a replicated global reach the primary by merge only.
  EXPECT_FALSE(peer.handle(ingest("s7", 5)).failed);
  q.record_local();
  EXPECT_GT(p.apply_message(q.collect_changes(p.versions())), 0u);

  const ExecutionResult read = primary.handle(state());
  EXPECT_EQ(read.response.body,
            json::Value::object({{"count", 1}, {"tally", 1}, {"last", "s7"}}));
  EXPECT_TRUE(harness->divergences().empty())
      << harness->divergences().front().kind << ": " << harness->divergences().front().detail;
  EXPECT_EQ(probes, 6u);
  EXPECT_EQ(synced, probes);  // every shadow replayed from the primary's live state
}

TEST(VariantHarnessTest, ShadowReplayWritesAreUndoneBeforeTheNextCheck) {
  ServiceRuntime primary(kUnitsService);
  std::size_t probes = 0, synced = 0;
  auto harness = make_probed_harness(kUnitsService, [&](ServiceRuntime& shadow) {
    if (probes++ == 0) {
      // The first shadow's replay of the write also leaves a row of its own.
      shadow.database().execute("INSERT INTO readings (sensor, value) VALUES ('ghost', 1)");
      return;
    }
    synced += same_state(shadow, primary);
  });
  primary.set_variant_harness(harness.get());

  EXPECT_FALSE(primary.handle(ingest("s0", 21.0)).failed);
  const std::size_t after_write = harness->divergences().size();
  // Every shadow replayed the write (one with a ghost row); the read must
  // still find each one back at the primary's state.
  const ExecutionResult read = primary.handle(state());
  EXPECT_EQ(read.response.body,
            json::Value::object({{"count", 1}, {"tally", 1}, {"last", "s0"}}));
  EXPECT_EQ(harness->divergences().size(), after_write);
  EXPECT_EQ(probes, 6u);
  EXPECT_EQ(synced, 5u);
}

// A fault that changes only a global the request writes, not its response,
// shows in the RW-log digests alone.
TEST(VariantHarnessTest, FaultInAWrittenGlobalIsCaughtByTheRwlogDigests) {
  ServiceRuntime primary(kUnitsService);
  std::vector<VariantSpec> specs(2);
  specs[0].name = "fast";
  specs[0].config.resolve = true;
  specs[1].name = "vm";
  specs[1].config.vm = true;
  specs[1].test_fault = [](ServiceRuntime& rt) {
    rt.interpreter().globals()->set("tally", minijs::JsValue(41.0));
  };
  auto harness = std::make_unique<VariantHarness>(kUnitsService, std::move(specs));
  primary.set_variant_harness(harness.get());

  EXPECT_EQ(primary.handle(ingest("s0", 21.0)).response.body, json::Value::object({{"ok", 1}}));
  ASSERT_FALSE(harness->divergences().empty()) << "fault not detected";
  for (const Divergence& d : harness->divergences()) {
    EXPECT_EQ(d.kind, "rwlog") << d.detail;  // the response agreed
    EXPECT_EQ(d.variant, "vm");
    EXPECT_NE(d.detail.find("tally"), std::string::npos) << d.detail;
  }
}

// ------------------------------------------------------------ deployment --

const core::TransformResult& transformed_sensor_hub() {
  static const core::TransformResult result = [] {
    const apps::SubjectApp& app = apps::sensor_hub();
    const http::TrafficRecorder traffic = core::record_traffic(app.server_source, app.workload);
    return core::Pipeline().transform(app.name, app.server_source, traffic);
  }();
  return result;
}

TEST(DeploymentVariantTest, CrossChecksEveryServedRequestCleanly) {
  const core::TransformResult& result = transformed_sensor_hub();
  ASSERT_TRUE(result.ok) << result.error;
  core::DeploymentConfig config;
  config.start_sync = false;
  config.edge_devices.assign(2, cluster::DeviceProfile::rpi4());
  config.variant_check = true;
  core::ThreeTierDeployment three(result, config);

  std::size_t i = 0;
  for (const http::HttpRequest& req : apps::sensor_hub().workload) {
    three.request_sync(req, i++ % 2);
  }
  EXPECT_GT(three.variant_checks(), 0u);
  EXPECT_EQ(three.variant_divergence_count(), 0u);

  // The metrics snapshot exports the counters...
  const std::string snapshot = three.metrics_snapshot().dump();
  EXPECT_NE(snapshot.find("variant.checks"), std::string::npos);
  EXPECT_NE(snapshot.find("variant.divergence.count"), std::string::npos);
  // ...and only when harnesses exist (variant-off snapshots unchanged).
  core::DeploymentConfig off = config;
  off.variant_check = false;
  core::ThreeTierDeployment plain(result, off);
  EXPECT_EQ(plain.metrics_snapshot().dump().find("variant."), std::string::npos);
  EXPECT_EQ(plain.variant_checks(), 0u);
}

TEST(DeploymentVariantTest, PlantedFaultSurfacesInDivergenceCount) {
  const core::TransformResult& result = transformed_sensor_hub();
  ASSERT_TRUE(result.ok) << result.error;
  core::DeploymentConfig config;
  config.start_sync = false;
  config.variant_check = true;
  config.variant_test_fault = [](runtime::ServiceRuntime& rt) {
    rt.database().execute("UPDATE readings SET value = 999999");
  };
  core::ThreeTierDeployment three(result, config);

  for (const http::HttpRequest& req : apps::sensor_hub().workload) {
    three.request_sync(req, 0);
  }
  EXPECT_GT(three.variant_divergence_count(), 0u);
  const std::vector<runtime::Divergence> divergences = three.variant_divergences();
  ASSERT_FALSE(divergences.empty());
  EXPECT_EQ(divergences.front().variant, "legacy");
  EXPECT_FALSE(divergences.front().detail.empty());
}

}  // namespace
}  // namespace edgstr::runtime
