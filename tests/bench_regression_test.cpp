// Bench-regression gate: scaled-down fig10a (sync bytes) and fig7 (request
// latency) scenarios run in-process and are checked against the committed
// baseline in tests/golden/bench_baseline.json with ±15% tolerance, so a
// perf regression fails ctest instead of silently drifting until someone
// re-reads the bench output.
//
// The simulation is deterministic, so the measured numbers are exactly
// reproducible on any machine; the tolerance absorbs *intentional* small
// shifts from unrelated changes. A deliberate perf change regenerates the
// baseline: EDGSTR_UPDATE_BENCH_BASELINE=1 ctest -R BenchRegression
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "crdt/json_doc.h"
#include "crdt/snapshot.h"
#include "crdt/wire.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "json/parse.h"
#include "json/value.h"
#include "scaled_hierarchy.h"
#include "sim/schedule.h"
#include "trace/state_capture.h"
#include "workload/shapes.h"

namespace edgstr {
namespace {

const core::TransformResult& transformed_sensor_hub() {
  static const core::TransformResult result = [] {
    const apps::SubjectApp& app = apps::sensor_hub();
    const http::TrafficRecorder traffic = core::record_traffic(app.server_source, app.workload);
    return core::Pipeline().transform(app.name, app.server_source, traffic);
  }();
  return result;
}

double percentile_95(std::vector<double> values) {
  EXPECT_FALSE(values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t idx = (values.size() * 95 + 99) / 100;  // ceil(0.95 n)
  return values[std::min(idx, values.size()) - 1];
}

/// Scaled-down fig10a: the sensor-hub workload spread round-robin over a
/// two-edge star+mesh, one sync round per sweep, converged at the end.
/// Returns total sync wire bytes (digests included).
double measure_sync_bytes() {
  const core::TransformResult& result = transformed_sensor_hub();
  core::DeploymentConfig config;
  config.start_sync = false;
  config.topology = core::SyncTopology::kStarEdgeMesh;
  config.edge_devices.assign(2, cluster::DeviceProfile::rpi4());
  core::ThreeTierDeployment three(result, config);
  std::size_t i = 0;
  for (const http::HttpRequest& req : apps::sensor_hub().workload) {
    three.request_sync(req, i++ % 2);
    if (i % 2 == 0) {
      three.sync().tick();
      three.network().clock().run();
    }
  }
  three.sync().sync_until_converged();
  return double(three.sync().total_sync_bytes());
}

/// Scaled-down fig7: p95 request latency through the edge proxy and the
/// two-tier cloud path over the whole workload.
void measure_latencies(double* edge_p95_s, double* cloud_p95_s) {
  const core::TransformResult& result = transformed_sensor_hub();
  const apps::SubjectApp& app = apps::sensor_hub();
  std::vector<double> edge, cloud;
  {
    core::DeploymentConfig config;
    config.start_sync = false;
    core::ThreeTierDeployment three(result, config);
    for (const http::HttpRequest& req : app.workload) {
      double latency = 0;
      three.request_sync(req, 0, &latency);
      edge.push_back(latency);
    }
  }
  {
    core::DeploymentConfig config;
    config.start_sync = false;
    core::TwoTierDeployment two(result.cloud_source, config);
    for (const http::HttpRequest& req : app.workload) {
      double latency = 0;
      two.request_sync(req, &latency);
      cloud.push_back(latency);
    }
  }
  *edge_p95_s = percentile_95(edge);
  *cloud_p95_s = percentile_95(cloud);
}

/// Deterministic execution-engine counters: the sensor-hub workload is
/// served state-isolated through a ProfilingHarness, and the gate keys on
/// interpreter step counts, resolver coverage (slot vs named reads), and
/// checkpoint sharing (snapshot components still pointer-shared with the
/// init snapshot after a full isolated sweep). All machine-independent —
/// a resolver coverage loss or a spurious-dirty CoW bug moves them.
void measure_interp_counters(json::Object* measured) {
  const apps::SubjectApp& app = apps::sensor_hub();
  trace::ProfilingHarness harness(app.server_source);
  for (const http::HttpRequest& req : app.workload) {
    const http::Route route{req.verb, req.path};
    if (!harness.interpreter().has_route(route)) continue;
    harness.invoke_isolated(route, req);
  }
  const minijs::Interpreter& interp = harness.interpreter();
  measured->set("interp_scaled.steps_total", json::Value(double(interp.steps())));
  measured->set("interp_scaled.slot_reads", json::Value(double(interp.slot_reads())));
  measured->set("interp_scaled.named_reads", json::Value(double(interp.named_reads())));

  // VM arm over the same workload: step totals must track the tree-walker
  // exactly (the VM ticks per expression node, like the walker), and the
  // inline-cache hit/miss split is deterministic — a compiler or cache
  // change that alters dispatch behaviour moves these keys.
  minijs::InterpreterConfig vm_config;
  vm_config.vm = true;
  trace::ProfilingHarness vm_harness(app.server_source, vm_config);
  for (const http::HttpRequest& req : app.workload) {
    const http::Route route{req.verb, req.path};
    if (!vm_harness.interpreter().has_route(route)) continue;
    vm_harness.invoke_isolated(route, req);
  }
  const minijs::Interpreter& vm = vm_harness.interpreter();
  EXPECT_EQ(vm.steps(), interp.steps()) << "VM step accounting diverged from the tree-walker";
  measured->set("vm_scaled.steps_total", json::Value(double(vm.steps())));
  measured->set("vm_scaled.slot_reads", json::Value(double(vm.slot_reads())));
  measured->set("vm_scaled.ic_hits", json::Value(double(vm.ic_hits())));
  measured->set("vm_scaled.ic_misses", json::Value(double(vm.ic_misses())));

  const trace::Snapshot now = harness.capture();
  std::size_t shared = 0;
  const auto count_shared = [&shared](const trace::ComponentMap& a, const trace::ComponentMap& b) {
    for (const auto& [key, comp] : a) {
      const auto it = b.find(key);
      if (it != b.end() && it->second.value == comp.value) ++shared;
    }
  };
  count_shared(harness.init_snapshot().tables, now.tables);
  count_shared(harness.init_snapshot().files, now.files);
  count_shared(harness.init_snapshot().globals, now.globals);
  measured->set("snapshot_scaled.shared_components", json::Value(double(shared)));
}

/// Scaled-down fig9 (cluster scaling): bench_fig9_cluster's hierarchy on
/// the replication graph, shrunk to 16 edges under fanout 4, 4 rounds of 4
/// inserts per edge. The keys are deterministic sync counters
/// — wire bytes, messages and rounds to converge — so the ±15% gate
/// catches digest-protocol or batching drift on a multi-hop topology; the
/// bench's wall-clock ops/s stays out of the gate.
void measure_scaled_hierarchy(json::Object* measured) {
  constexpr std::size_t kEdges = 16, kFanout = 4, kRounds = 4, kOpsPerEdgeRound = 4;
  bench::ScaledHierarchy world(kEdges, kFanout);
  world.drive(kRounds, kOpsPerEdgeRound);
  const int rounds = world.rounds_to_converge();
  ASSERT_GE(rounds, 0) << "scaled hierarchy did not converge";
  ASSERT_EQ(world.cloud().tables().live_rows(), kEdges * kRounds * kOpsPerEdgeRound);

  measured->set("fig9_scaled.edges", json::Value(double(kEdges)));
  measured->set("fig9_scaled.users",
                json::Value(double(kEdges * bench::ScaledHierarchy::kUsersPerEdge)));
  measured->set("fig9_scaled.sync_bytes", json::Value(double(world.graph().total_sync_bytes())));
  measured->set("fig9_scaled.sync_messages",
                json::Value(double(world.graph().sync_messages())));
  measured->set("fig9_scaled.converge_rounds", json::Value(double(rounds)));
}

/// Scaled-down bench_workload: the three adversarial traffic shapes run as
/// short fixed-seed schedules, and the gate keys on what the shapes are
/// supposed to produce — hot-key concentration for zipf, peak arrival
/// pileup for flash, migration/handoff counts for churn, and the online
/// variant-agreement counters (divergences gate at exactly zero). All
/// seed-derived, so any drift means the workload plane itself changed.
void measure_workload_scenarios(json::Object* measured) {
  {
    const workload::KeyDistribution dist = workload::KeyDistribution::zipf(16, 1.2);
    sim::ScheduleConfig config;
    config.seed = 101;
    config.rounds = 8;
    config.workload = workload::WorkloadShape::kZipf;
    const sim::ScheduleResult result = sim::run_schedule(config);
    EXPECT_TRUE(result.passed) << result.summary();
    measured->set("workload.zipf.hot_key_share", json::Value(dist.top_share(3)));
    measured->set("workload.zipf.acked", json::Value(double(result.writes_acked)));
    measured->set("workload.variant.checks", json::Value(double(result.variant_checks)));
    measured->set("workload.variant.divergences",
                  json::Value(double(result.variant_divergences)));
  }
  {
    const workload::ArrivalSchedule base = workload::ArrivalSchedule::poisson(40, 30.0, 7);
    workload::FlashCrowdSpec spec;
    spec.crowds = 3;
    spec.crowd_duration_s = 4.0;
    spec.compression = 5.0;
    const workload::ArrivalSchedule warped = workload::inject_flash_crowds(base, spec, 7);
    const auto peak_1s = [](const workload::ArrivalSchedule& s) {
      std::size_t best = 0, lo = 0;
      for (std::size_t hi = 0; hi < s.times().size(); ++hi) {
        while (s.times()[hi] - s.times()[lo] > 1.0) ++lo;
        best = std::max(best, hi - lo + 1);
      }
      return double(best);
    };
    measured->set("workload.flash.arrivals", json::Value(double(warped.size())));
    measured->set("workload.flash.peak_window", json::Value(peak_1s(warped)));
  }
  {
    sim::ScheduleConfig config;
    config.seed = 202;
    config.rounds = 8;
    config.workload = workload::WorkloadShape::kChurn;
    const sim::ScheduleResult result = sim::run_schedule(config);
    EXPECT_TRUE(result.passed) << result.summary();
    measured->set("workload.churn.migrations", json::Value(double(result.migrations)));
    measured->set("workload.churn.handoff_fail", json::Value(double(result.handoffs_failed)));
    measured->set("workload.churn.acked", json::Value(double(result.writes_acked)));
  }
}

/// Scaled-down bench_bootstrap: cold-start payload sizes for the two
/// rejoin arms over the same overwrite-heavy doc — full op replay vs
/// snapshot + tail. Wire encodings of deterministic messages, so the keys
/// are exactly reproducible; wall-clock stays in the bench binary. A
/// framing or snapshot-encoding change moves the byte keys, and the 5x
/// acceptance bar is asserted outright (not just baselined) so the
/// snapshot path can never silently decay into replay-sized transfers.
void measure_bootstrap(json::Object* measured) {
  constexpr std::size_t kOps = 4000, kKeys = 256, kTail = 128;
  crdt::CrdtJson source("bench-src");
  source.initialize(json::Value::object({}));
  crdt::Snapshot checkpoint;
  for (std::size_t i = 0; i < kOps; ++i) {
    if (i == kOps - kTail) checkpoint = source.cut_snapshot();
    source.set("key" + std::to_string(i % kKeys), json::Value(double(i)));
  }

  crdt::SyncMessage replay;
  replay.from = "bench-src";
  replay.versions["globals"] = source.version();
  replay.ops["globals"] = source.getChanges({});
  const double replay_bytes = double(crdt::encode_message(replay).dump().size());

  crdt::SyncMessage snap;
  snap.kind = crdt::SyncKind::kSnapshot;
  snap.from = "bench-src";
  snap.versions["globals"] = source.version();
  snap.snapshot = json::Value::object({{"globals", checkpoint.to_json()}});
  snap.ops["globals"] = source.getChanges(checkpoint.covered);
  const double snap_bytes = double(crdt::encode_message(snap).dump().size());

  EXPECT_GE(replay_bytes, snap_bytes * 5.0)
      << "snapshot bootstrap lost its >=5x byte advantage over full replay";
  measured->set("bootstrap_scaled.replay_ops", json::Value(double(replay.op_count())));
  measured->set("bootstrap_scaled.replay_bytes", json::Value(replay_bytes));
  measured->set("bootstrap_scaled.tail_ops", json::Value(double(snap.op_count())));
  measured->set("bootstrap_scaled.snapshot_bytes", json::Value(snap_bytes));
}

TEST(BenchRegressionTest, SyncBytesAndLatencyStayNearBaseline) {
  const core::TransformResult& result = transformed_sensor_hub();
  ASSERT_TRUE(result.ok) << result.error;

  json::Object measured;
  measured.set("fig10a_scaled.sync_bytes_total", json::Value(measure_sync_bytes()));
  double edge_p95 = 0, cloud_p95 = 0;
  measure_latencies(&edge_p95, &cloud_p95);
  measured.set("fig7_scaled.edge_p95_latency_s", json::Value(edge_p95));
  measured.set("fig7_scaled.cloud_p95_latency_s", json::Value(cloud_p95));
  measure_interp_counters(&measured);
  measure_scaled_hierarchy(&measured);
  measure_workload_scenarios(&measured);
  measure_bootstrap(&measured);

  const std::string path = std::string(EDGSTR_TESTS_DIR) + "/golden/bench_baseline.json";
  if (std::getenv("EDGSTR_UPDATE_BENCH_BASELINE")) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << json::Value(measured).dump_pretty() << "\n";
    GTEST_SKIP() << "baseline regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path
                            << " missing; regenerate with EDGSTR_UPDATE_BENCH_BASELINE=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value baseline = json::parse(buffer.str());

  for (const auto& [key, value] : measured) {
    const json::Value* expected = baseline.find(key);
    ASSERT_NE(expected, nullptr) << "baseline lacks '" << key
                                 << "'; regenerate with EDGSTR_UPDATE_BENCH_BASELINE=1";
    const double want = expected->as_number();
    const double got = value.as_number();
    EXPECT_GE(got, want * 0.85) << key << " improved past tolerance — lock in the win by "
                                << "regenerating the baseline";
    EXPECT_LE(got, want * 1.15) << key << " regressed vs the committed baseline (" << got
                                << " vs " << want << ")";
  }
}

/// Observability overhead gate (scaled-down bench_obs): the same seeded
/// churn schedule runs with the full obs plane (time-series capture +
/// flight recorder + SLO watchdog) off and on, min-of-reps on both arms.
/// Each arm is timed in this thread's CPU time: run_schedule runs entirely
/// on the calling thread, and CPU time does not count the
/// time the thread spends descheduled, so other processes contending for
/// the cores do not inflate either arm.
/// The capture-on arm gets a 5% budget — the plane's whole pitch is that
/// it stays on in every sim run. No golden baseline: the ratio is
/// self-normalizing, so the gate is a plain assertion.
TEST(BenchRegressionTest, ObservabilityOverheadStaysWithinBudget) {
  const auto arm = [](bool obs_on) {
    sim::ScheduleConfig config;
    config.seed = 303;
    config.rounds = 8;
    config.workload = workload::WorkloadShape::kChurn;
    config.capture_timeseries = obs_on;
    config.flight_ring = obs_on ? 96 : 0;
    config.slo_watchdog = obs_on;
    return config;
  };
  const auto thread_cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) * 1e-6;
  };
  const auto run_ms = [&thread_cpu_ms](const sim::ScheduleConfig& config,
                                       std::uint64_t* digest) {
    const double t0 = thread_cpu_ms();
    const sim::ScheduleResult result = sim::run_schedule(config);
    const double t1 = thread_cpu_ms();
    *digest = result.trace_digest;
    return t1 - t0;
  };

  constexpr int kReps = 4;
  double off_ms = -1, on_ms = -1;
  std::uint64_t digest_off = 0, digest_on = 0;
  for (int r = 0; r < kReps; ++r) {  // interleaved, so drift hits both arms
    off_ms = off_ms < 0 ? run_ms(arm(false), &digest_off)
                        : std::min(off_ms, run_ms(arm(false), &digest_off));
    on_ms = on_ms < 0 ? run_ms(arm(true), &digest_on)
                      : std::min(on_ms, run_ms(arm(true), &digest_on));
  }

  // Observation must not perturb the schedule: identical seeds, identical
  // trace digests, obs plane on or off.
  EXPECT_EQ(digest_off, digest_on);
  const double ratio = on_ms / off_ms;
  EXPECT_LE(ratio, 1.05) << "obs plane overhead " << (ratio - 1.0) * 100.0
                         << "% exceeds the 5% budget (off=" << off_ms << "ms on=" << on_ms
                         << "ms)";
}

}  // namespace
}  // namespace edgstr
