// Simulation-harness tests: fixed-seed smoke runs, the determinism
// contract (same seed => byte-identical trace and state), and the
// harness-catches-a-real-regression guarantee.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <set>
#include <utility>
#include <vector>

#include "runtime/replica_state.h"
#include "runtime/service_runtime.h"
#include "sim/invariants.h"
#include "sim/schedule.h"

#if defined(__GLIBC__)
#include <malloc.h>
#if __GLIBC_PREREQ(2, 33)
#define EDGSTR_HAS_MALLINFO2 1
#endif
#endif

// Sanitizer allocators keep their own books (and LeakSanitizer already
// checks that nothing outlives a run), so the heap-flatness test skips.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EDGSTR_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EDGSTR_SANITIZED 1
#endif
#endif

namespace edgstr::sim {
namespace {

// Every failure message leads with the seed: paste it into
// `sim_explore --trace --seed N` to replay the exact run.

TEST(SimSmokeTest, FixedSeedsPassAllInvariants) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 99991ull}) {
    ScheduleConfig config;
    config.seed = seed;
    const ScheduleResult result = run_schedule(config);
    EXPECT_TRUE(result.passed) << result.summary();
    // The run must have actually exercised the plane, not vacuously passed.
    EXPECT_GT(result.writes_acked, 0u) << result.summary();
    EXPECT_GT(result.requests, 0u) << result.summary();
  }
}

TEST(SimSmokeTest, EveryTopologyAppearsAcrossSeeds) {
  std::set<std::string> seen;
  for (std::uint64_t seed = 1; seed <= 12 && seen.size() < 3; ++seed) {
    ScheduleConfig config;
    config.seed = seed;
    config.rounds = 4;  // topology is drawn up front; keep the runs short
    seen.insert(run_schedule(config).topology);
  }
  EXPECT_EQ(seen.size(), 3u) << "star, star+mesh, and hierarchy should all be drawn";
}

TEST(SimDeterminismTest, SameSeedProducesIdenticalTraceAndState) {
  for (const std::uint64_t seed : {3ull, 42ull, 777ull}) {
    ScheduleConfig config;
    config.seed = seed;
    const ScheduleResult first = run_schedule(config);
    const ScheduleResult second = run_schedule(config);

    EXPECT_EQ(first.trace_digest, second.trace_digest) << "seed " << seed;
    EXPECT_EQ(first.state_digest, second.state_digest) << "seed " << seed;
    EXPECT_EQ(first.passed, second.passed) << "seed " << seed;
    EXPECT_EQ(first.requests, second.requests) << "seed " << seed;
    EXPECT_EQ(first.crashes, second.crashes) << "seed " << seed;

    // Digest equality must reflect event-by-event equality, not a hash
    // fluke over differing traces.
    ASSERT_EQ(first.trace.size(), second.trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < first.trace.size(); ++i) {
      EXPECT_EQ(EventTrace::format(first.trace.events()[i]),
                EventTrace::format(second.trace.events()[i]))
          << "seed " << seed << " event " << i;
    }
  }
}

TEST(SimDeterminismTest, DifferentSeedsProduceDifferentRuns) {
  ScheduleConfig a, b;
  a.seed = 5;
  b.seed = 6;
  EXPECT_NE(run_schedule(a).trace_digest, run_schedule(b).trace_digest);
}

TEST(SimDeterminismTest, SameSeedProducesIdenticalTelemetryExports) {
  // Span ids, timestamps, and histogram contents all come from the seeded
  // simulation, so the serialized Chrome trace and metrics snapshot must be
  // byte-identical across same-seed runs.
  ScheduleConfig config;
  config.seed = 42;
  config.capture_telemetry = true;
  const ScheduleResult first = run_schedule(config);
  const ScheduleResult second = run_schedule(config);

  EXPECT_FALSE(first.chrome_trace.empty());
  EXPECT_FALSE(first.metrics_snapshot.empty());
  EXPECT_EQ(first.chrome_trace, second.chrome_trace);
  EXPECT_EQ(first.metrics_snapshot, second.metrics_snapshot);

  // Off by default: no serialization cost on plain runs.
  ScheduleConfig plain;
  plain.seed = 42;
  EXPECT_TRUE(run_schedule(plain).chrome_trace.empty());
}

// The convergence invariant is the harness's main verdict; pin that it
// fires on a real divergence (naming the diverged unit) and stays silent
// on identical replicas, so it can never go blind unnoticed.
const char* kGlobalsServer = R"JS(
var count = 0;
app.post("/bump", function (req, res) {
  count = count + 1;
  res.send({ count: count });
});
)JS";

struct TwoReplicas {
  runtime::ServiceRuntime cloud_svc{kGlobalsServer};
  runtime::ServiceRuntime edge_svc{kGlobalsServer};
  runtime::ReplicaState cloud{"cloud", &cloud_svc, {}, {"*"}};
  runtime::ReplicaState edge{"edge0", &edge_svc, {}, {"*"}};

  TwoReplicas() {
    cloud.attach_existing();
    edge.initialize_from_snapshot(cloud_svc.capture_state());
  }
  std::vector<std::pair<std::string, const runtime::ReplicaState*>> endpoints() const {
    return {{"cloud", &cloud}, {"edge0", &edge}};
  }
};

TEST(InvariantCheckerTest, ConvergenceFlagsTheDivergedUnit) {
  TwoReplicas w;
  http::HttpRequest bump;
  bump.verb = http::Verb::kPost;
  bump.path = "/bump";
  w.edge_svc.handle(bump);
  w.edge.record_local();

  InvariantChecker checker;
  checker.check_convergence(w.endpoints());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "convergence");
  EXPECT_NE(checker.violations()[0].detail.find("'globals'"), std::string::npos)
      << checker.violations()[0].detail;
}

TEST(InvariantCheckerTest, ConvergenceIsSilentOnIdenticalReplicas) {
  TwoReplicas w;
  InvariantChecker checker;
  checker.check_convergence(w.endpoints());
  EXPECT_TRUE(checker.passed());
}

TEST(InvariantCheckerTest, RegressedSeqIsFlaggedUntilTheBaselineResets) {
  InvariantChecker checker;
  checker.observe_versions("edge0", {{"globals", {{"edge0", 5}}}});
  checker.observe_versions("edge0", {{"globals", {{"edge0", 3}}}});
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "version-monotonic");

  // A crash legitimately restarts the vector: after reset_baseline the
  // same drop is not a violation.
  checker.reset_baseline("edge0");
  checker.observe_versions("edge0", {{"globals", {{"edge0", 1}}}});
  EXPECT_EQ(checker.violations().size(), 1u);
}

// Every seed in tests/seeds/regressions.txt once exposed a real
// replication bug (the file says which); replaying the corpus keeps the
// exact schedules that caught them in the gate forever. A line may
// carry a prefix: a workload shape ("churn 19") replays migration/handoff
// bugs only a shaped schedule can reach; "durable N" replays the seed with
// durable op logs and power-loss injection on; "durable-fault N" pins a
// planted-fault TRUE POSITIVE — the lying-fsync regression must keep
// failing that schedule with a durable-op-loss violation forever.
TEST(SimRegressionCatchTest, RegressionSeedCorpusStaysGreen) {
  std::ifstream corpus(std::string(EDGSTR_TESTS_DIR) + "/seeds/regressions.txt");
  ASSERT_TRUE(corpus.is_open()) << "tests/seeds/regressions.txt missing";
  struct CorpusLine {
    workload::WorkloadShape shape = workload::WorkloadShape::kUniform;
    std::uint64_t seed = 0;
    bool durable = false;
    bool durability_fault = false;  ///< expected to FAIL (true positive)
  };
  std::vector<CorpusLine> seeds;
  std::string line;
  while (std::getline(corpus, line)) {
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    CorpusLine entry;
    const std::size_t space = line.find(' ', start);
    if (space != std::string::npos && !std::isdigit(static_cast<unsigned char>(line[start]))) {
      const std::string token = line.substr(start, space - start);
      if (token == "durable") {
        entry.durable = true;
      } else if (token == "durable-fault") {
        entry.durable = entry.durability_fault = true;
      } else {
        ASSERT_TRUE(workload::parse_workload_shape(token, &entry.shape))
            << "bad prefix in corpus line: " << line;
      }
      start = line.find_first_not_of(" \t", space);
      ASSERT_NE(start, std::string::npos) << "prefix without seed: " << line;
    }
    entry.seed = std::stoull(line.substr(start));
    seeds.push_back(entry);
  }
  ASSERT_FALSE(seeds.empty()) << "empty regression corpus";
  bool saw_shaped = false, saw_durable = false, saw_fault = false;
  for (const CorpusLine& entry : seeds) {
    saw_shaped = saw_shaped || entry.shape != workload::WorkloadShape::kUniform;
    saw_durable = saw_durable || (entry.durable && !entry.durability_fault);
    saw_fault = saw_fault || entry.durability_fault;
    ScheduleConfig config;
    config.seed = entry.seed;
    config.workload = entry.shape;
    config.durable = entry.durable;
    config.power_loss = entry.durable && !entry.durability_fault;
    config.durability_fault = entry.durability_fault;
    const ScheduleResult result = run_schedule(config);
    if (entry.durability_fault) {
      // The planted fault stays caught: a green run here means the
      // durable-op-loss invariant went blind.
      ASSERT_FALSE(result.passed) << "lying-fsync fault escaped: " << result.summary();
      bool loss_violation = false;
      for (const Violation& v : result.violations) {
        if (v.invariant == "durable-op-loss") loss_violation = true;
      }
      EXPECT_TRUE(loss_violation) << result.summary();
    } else {
      EXPECT_TRUE(result.passed) << "regression seed resurfaced: " << result.summary();
    }
  }
  EXPECT_TRUE(saw_shaped) << "migration regression seeds missing from the corpus";
  EXPECT_TRUE(saw_durable) << "durable regression seeds missing from the corpus";
  EXPECT_TRUE(saw_fault) << "durable-fault true-positive seed missing from the corpus";
}

// ------------------------------------------------- workload & variants --

TEST(SimWorkloadTest, ShapesKeepTheBaseScheduleIntact) {
  // Shape draws come from a separate RNG stream, so the topology and the
  // fault schedule for a seed are identical under every shape — shapes
  // add adversity on top, they never reshuffle the run underneath.
  for (const std::uint64_t seed : {3ull, 19ull, 42ull}) {
    ScheduleConfig base;
    base.seed = seed;
    const ScheduleResult uniform = run_schedule(base);
    for (const workload::WorkloadShape shape :
         {workload::WorkloadShape::kZipf, workload::WorkloadShape::kFlash,
          workload::WorkloadShape::kChurn}) {
      ScheduleConfig shaped = base;
      shaped.workload = shape;
      const ScheduleResult result = run_schedule(shaped);
      EXPECT_EQ(result.topology, uniform.topology) << "seed " << seed;
      EXPECT_EQ(result.edges, uniform.edges) << "seed " << seed;
      EXPECT_EQ(result.crashes, uniform.crashes) << "seed " << seed;
      EXPECT_EQ(result.partitions, uniform.partitions) << "seed " << seed;
      EXPECT_TRUE(result.passed) << result.summary();
    }
  }
}

TEST(SimWorkloadTest, ShapedRunsAreSeedDeterministic) {
  for (const workload::WorkloadShape shape :
       {workload::WorkloadShape::kZipf, workload::WorkloadShape::kFlash,
        workload::WorkloadShape::kChurn}) {
    ScheduleConfig config;
    config.seed = 19;
    config.workload = shape;
    const ScheduleResult first = run_schedule(config);
    const ScheduleResult second = run_schedule(config);
    EXPECT_EQ(first.trace_digest, second.trace_digest);
    EXPECT_EQ(first.state_digest, second.state_digest);
    EXPECT_EQ(first.migrations, second.migrations);
  }
}

TEST(SimWorkloadTest, ChurnExercisesTheMigrationInvariant) {
  // Seed 195 (hierarchy) performs repeated cross-edge migrations with
  // successful handoffs; the migration-ryw invariant must actually run
  // (migrations > 0) and hold.
  ScheduleConfig config;
  config.seed = 195;
  config.workload = workload::WorkloadShape::kChurn;
  const ScheduleResult result = run_schedule(config);
  EXPECT_TRUE(result.passed) << result.summary();
  EXPECT_GT(result.migrations, 10u) << result.summary();
  EXPECT_LT(result.handoffs_failed, result.migrations) << result.summary();
}

TEST(SimVariantTest, ShadowsAreScheduleInvisible) {
  // The variant shadows replay off-network from synced state; turning
  // the cross-check off must not move a single byte of the schedule.
  for (const std::uint64_t seed : {7ull, 24ull}) {
    ScheduleConfig on, off;
    on.seed = off.seed = seed;
    off.variant_check = false;
    const ScheduleResult checked = run_schedule(on);
    const ScheduleResult plain = run_schedule(off);
    EXPECT_EQ(checked.trace_digest, plain.trace_digest) << "seed " << seed;
    EXPECT_EQ(checked.state_digest, plain.state_digest) << "seed " << seed;
    EXPECT_GT(checked.variant_checks, 0u);
    EXPECT_EQ(plain.variant_checks, 0u);
  }
}

TEST(SimVariantTest, PlantedVariantFaultIsCaught) {
  // The harness's planted-fault guarantee for the execution engine: a
  // semantic fault planted on the legacy shadow (an unconditional UPDATE
  // skew on every replay) must surface as variant-agreement violations on
  // virtually every seed, each carrying the offending request.
  std::size_t caught = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScheduleConfig config;
    config.seed = seed;
    config.variant_fault = true;
    const ScheduleResult result = run_schedule(config);
    if (result.passed) continue;
    bool variant_violation = false;
    for (const Violation& v : result.violations) {
      if (v.invariant == "variant-agreement") variant_violation = true;
    }
    if (variant_violation) ++caught;
    EXPECT_GT(result.variant_divergences, 0u) << result.summary();
  }
  EXPECT_GE(caught, 4u) << "planted engine fault escaped the variant harness";
}

// ------------------------------------------------------------ durability --

TEST(SimDurabilityTest, DurableRunsPassAndRecoverFromEveryCrash) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    ScheduleConfig config;
    config.seed = seed;
    config.durable = true;
    const ScheduleResult result = run_schedule(config);
    EXPECT_TRUE(result.passed) << result.summary();
    // Every durable-edge crash ran a log recovery; a crash-bearing
    // schedule that recovered nothing would mean the log never engaged.
    if (result.crashes > 0) {
      EXPECT_GT(result.durable_recoveries, 0u) << result.summary();
    }
  }
}

TEST(SimDurabilityTest, DurabilityKeepsTheBaseScheduleIntact) {
  // Durability draws come from a separate RNG stream: the topology and the
  // fault schedule for a seed are identical with the knob on or off — the
  // durable log changes what a crash *loses*, never what the run does.
  for (const std::uint64_t seed : {3ull, 7ull, 42ull}) {
    ScheduleConfig plain;
    plain.seed = seed;
    const ScheduleResult base = run_schedule(plain);
    for (const bool power_loss : {false, true}) {
      ScheduleConfig durable = plain;
      durable.durable = true;
      durable.power_loss = power_loss;
      const ScheduleResult result = run_schedule(durable);
      EXPECT_EQ(result.topology, base.topology) << "seed " << seed;
      EXPECT_EQ(result.edges, base.edges) << "seed " << seed;
      EXPECT_EQ(result.crashes, base.crashes) << "seed " << seed;
      EXPECT_EQ(result.partitions, base.partitions) << "seed " << seed;
      EXPECT_TRUE(result.passed) << result.summary();
    }
  }
}

TEST(SimDurabilityTest, DurableRunsAreSeedDeterministic) {
  ScheduleConfig config;
  config.seed = 7;
  config.durable = true;
  config.power_loss = true;
  const ScheduleResult first = run_schedule(config);
  const ScheduleResult second = run_schedule(config);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
  EXPECT_EQ(first.state_digest, second.state_digest);
  EXPECT_EQ(first.durable_recoveries, second.durable_recoveries);
  EXPECT_EQ(first.recovered_ops, second.recovered_ops);
  EXPECT_EQ(first.truncated_records, second.truncated_records);
}

TEST(SimDurabilityTest, PowerLossSweepStaysGreen) {
  // Torn-tail injection at stream-drawn offsets: recovery truncates the
  // tear and every invariant still holds (acked => fsynced => recovered).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScheduleConfig config;
    config.seed = seed;
    config.durable = true;
    config.power_loss = true;
    const ScheduleResult result = run_schedule(config);
    EXPECT_TRUE(result.passed) << result.summary();
  }
}

TEST(SimDurabilityTest, MetricsCarryDurabilityKeysOnlyWhenDurable) {
  ScheduleConfig plain;
  plain.seed = 42;
  plain.capture_telemetry = true;
  const ScheduleResult off = run_schedule(plain);
  EXPECT_EQ(off.metrics_snapshot.find("durability."), std::string::npos);
  EXPECT_EQ(off.metrics_snapshot.find("bootstrap.snapshot"), std::string::npos);

  ScheduleConfig durable = plain;
  durable.durable = true;
  const ScheduleResult on = run_schedule(durable);
  EXPECT_NE(on.metrics_snapshot.find("durability.fsyncs"), std::string::npos);
  EXPECT_NE(on.metrics_snapshot.find("durability.appended_ops"), std::string::npos);
  EXPECT_NE(on.metrics_snapshot.find("durability.recoveries"), std::string::npos);
}

// The planted-fault guarantee for the durability plane: a disk that lies
// about fsync (claims durability, provides none) must be flagged by the
// durable-op-loss invariant on (most) seeds that crash an edge holding
// acked data.
TEST(SimRegressionCatchTest, DurabilityFaultIsCaught) {
  std::size_t caught = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScheduleConfig config;
    config.seed = seed;
    config.durable = true;
    config.durability_fault = true;
    const ScheduleResult result = run_schedule(config);
    if (result.passed) continue;
    bool loss_violation = false;
    for (const Violation& v : result.violations) {
      if (v.invariant == "durable-op-loss") loss_violation = true;
    }
    if (loss_violation) ++caught;
    EXPECT_NE(result.summary().find("FAIL"), std::string::npos);
  }
  EXPECT_GE(caught, 7u) << "lying-fsync regression escaped the harness";
}

// ------------------------------------------------- observability plane --

TEST(SimObservabilityTest, TimeseriesExportIsByteIdenticalAcrossRuns) {
  ScheduleConfig config;
  config.seed = 42;
  config.capture_timeseries = true;
  const ScheduleResult first = run_schedule(config);
  const ScheduleResult second = run_schedule(config);
  ASSERT_FALSE(first.timeseries.empty());
  EXPECT_EQ(first.timeseries, second.timeseries);
  // The series actually saw the run: request counters and staleness
  // samples, windowed.
  EXPECT_NE(first.timeseries.find("req."), std::string::npos);
  EXPECT_NE(first.timeseries.find("staleness.seconds"), std::string::npos);
  EXPECT_NE(first.timeseries.find("sync.ops"), std::string::npos);
}

TEST(SimObservabilityTest, CaptureStaysOutOfTheScheduleAndTheOldExports) {
  // Turning the whole obs plane on must not move a byte of the run: same
  // trace digest, same converged state.
  ScheduleConfig off;
  off.seed = 7;
  off.flight_ring = 0;
  ScheduleConfig on = off;
  on.capture_timeseries = true;
  on.flight_ring = 96;
  on.slo_watchdog = true;
  const ScheduleResult plain = run_schedule(off);
  const ScheduleResult observed = run_schedule(on);
  EXPECT_EQ(plain.trace_digest, observed.trace_digest);
  EXPECT_EQ(plain.state_digest, observed.state_digest);
  EXPECT_TRUE(plain.timeseries.empty());  // capture off: nothing serialized

  // And the pre-existing telemetry exports keep their exact bytes when the
  // time-series capture is off — the flight recorder (on by default)
  // touches no export at all.
  ScheduleConfig tele = off;
  tele.capture_telemetry = true;
  ScheduleConfig tele_flight = tele;
  tele_flight.flight_ring = 96;
  const ScheduleResult bare = run_schedule(tele);
  const ScheduleResult with_flight = run_schedule(tele_flight);
  EXPECT_EQ(bare.chrome_trace, with_flight.chrome_trace);
  EXPECT_EQ(bare.metrics_snapshot, with_flight.metrics_snapshot);
}

TEST(SimObservabilityTest, FlightDumpIsAttachedOnlyToFailures) {
  ScheduleConfig clean;
  clean.seed = 42;
  const ScheduleResult passed = run_schedule(clean);
  ASSERT_TRUE(passed.passed) << passed.summary();
  EXPECT_TRUE(passed.flight_dump.empty());

  // Seed 7 with a lying fsync loses durable writes (the corpus's
  // durable-op-loss true positive); the black box must come out with the
  // failure report.
  ScheduleConfig failing;
  failing.seed = 7;
  failing.durable = true;
  failing.durability_fault = true;
  const ScheduleResult failed = run_schedule(failing);
  ASSERT_FALSE(failed.passed) << failed.summary();
  EXPECT_NE(failed.flight_dump.find("flight recorder:"), std::string::npos);
  // The ring saw the replication plane, not just bookkeeping.
  EXPECT_NE(failed.flight_dump.find("send"), std::string::npos);

  ScheduleConfig no_ring = failing;
  no_ring.flight_ring = 0;
  EXPECT_TRUE(run_schedule(no_ring).flight_dump.empty());
}

TEST(SimSloTest, DefaultRulesStaySilentOnCleanSeeds) {
  // The clean-sweep contract: the default rule set must produce zero false
  // positives on healthy runs (the nightly sweep checks 1000 seeds; this
  // is the in-gate slice, across every workload shape).
  for (const workload::WorkloadShape shape :
       {workload::WorkloadShape::kUniform, workload::WorkloadShape::kChurn,
        workload::WorkloadShape::kFlash}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      ScheduleConfig config;
      config.seed = seed;
      config.workload = shape;
      config.slo_watchdog = true;
      config.forbid_alerts = true;
      const ScheduleResult result = run_schedule(config);
      EXPECT_TRUE(result.passed) << result.summary();
      EXPECT_TRUE(result.slo_alerts.empty()) << result.summary();
    }
  }
}

TEST(SimSloTest, PlantedHandoffFaultFiresTheHandoffRateRule) {
  // The watchdog's reason to exist: every cross-host handoff failing is
  // invisible to the invariants (a failed flush lawfully lapses the
  // migration-ryw obligation) — only the handoff-fail-rate rule sees the
  // unbroken consecutive-failure run the broken flush path produces. Seed
  // 195 churn performs 17 migrations, all of which the fault fails, so the
  // run grows to 17 — past the sweep-calibrated threshold of 14.
  ScheduleConfig config;
  config.seed = 195;
  config.workload = workload::WorkloadShape::kChurn;
  config.handoff_fault = true;
  config.slo_watchdog = true;
  config.require_alerts = {"handoff-fail-rate"};
  const ScheduleResult result = run_schedule(config);
  EXPECT_TRUE(result.passed) << result.summary();
  ASSERT_FALSE(result.slo_alerts.empty()) << result.summary();
  // The alert names the offending window — evidence, not detection time.
  EXPECT_NE(result.slo_alerts[0].find("handoff-fail-rate"), std::string::npos);
  EXPECT_NE(result.slo_alerts[0].find("window"), std::string::npos);

  // And without the planted fault, the same schedule stays silent — the
  // rule keys on the sustained run, not on churn itself.
  ScheduleConfig healthy = config;
  healthy.handoff_fault = false;
  healthy.require_alerts.clear();
  healthy.forbid_alerts = true;
  EXPECT_TRUE(run_schedule(healthy).passed);
}

TEST(SimSloTest, PlantedVariantFaultFiresTheDivergenceRule) {
  // kTotal rule with threshold 0: a single divergence anywhere must alert,
  // once, at the window where the total first crossed.
  ScheduleConfig config;
  config.seed = 1;
  config.variant_fault = true;
  config.slo_watchdog = true;
  config.require_alerts = {"variant-divergence"};
  const ScheduleResult result = run_schedule(config);
  // The run fails on variant-agreement (the planted fault is real), but
  // the watchdog must ALSO have caught it — and only once.
  EXPECT_GT(result.variant_divergences, 0u) << result.summary();
  std::size_t divergence_alerts = 0;
  for (const std::string& alert : result.slo_alerts) {
    if (alert.find("variant-divergence") != std::string::npos) ++divergence_alerts;
  }
  EXPECT_EQ(divergence_alerts, 1u) << result.summary();
  bool missed = false;
  for (const Violation& v : result.violations) {
    if (v.invariant == "slo-missed-alert") missed = true;
  }
  EXPECT_FALSE(missed) << result.summary();
}

TEST(SimSloTest, RequiredQuantileAlertFiresAndNamesItsWindow) {
  // A tight custom quantile rule over a flash-crowd schedule: staleness
  // p95 above 1.5 simulated seconds for 2 consecutive windows. Flash
  // crowds push staleness past that bound even with healthy sync, so the
  // required rule must fire, and its alert must name the offending window.
  obs::SloRule rule;
  rule.name = "staleness-tight";
  rule.kind = obs::SloRule::Kind::kQuantile;
  rule.metric = "staleness.seconds";
  rule.q = 0.95;
  rule.threshold = 1.5;
  rule.windows = 2;

  ScheduleConfig config;
  config.seed = 9;
  config.workload = workload::WorkloadShape::kFlash;
  config.slo_watchdog = true;
  config.slo_rules = {rule};
  config.require_alerts = {"staleness-tight"};
  const ScheduleResult result = run_schedule(config);
  bool missed = false;
  for (const Violation& v : result.violations) {
    if (v.invariant == "slo-missed-alert") missed = true;
  }
  EXPECT_FALSE(missed) << result.summary();
  ASSERT_FALSE(result.slo_alerts.empty()) << result.summary();
  EXPECT_NE(result.slo_alerts[0].find("staleness-tight"), std::string::npos);
  EXPECT_NE(result.slo_alerts[0].find("window"), std::string::npos);
}

TEST(SimSloTest, AlertsAreSeedDeterministic) {
  ScheduleConfig config;
  config.seed = 195;
  config.workload = workload::WorkloadShape::kChurn;
  config.handoff_fault = true;
  config.slo_watchdog = true;
  const ScheduleResult first = run_schedule(config);
  const ScheduleResult second = run_schedule(config);
  EXPECT_EQ(first.slo_alerts, second.slo_alerts);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
}

TEST(SimTraceTest, DigestIsOrderSensitive) {
  EventTrace a, b;
  a.record(1.0, "write", "x");
  a.record(2.0, "sync", "y");
  b.record(2.0, "sync", "y");
  b.record(1.0, "write", "x");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(SimTraceTest, DumpElidesTheMiddleOfLongTraces) {
  EventTrace trace;
  for (int i = 0; i < 100; ++i) trace.record(i, "e", std::to_string(i));
  const std::string dump = trace.dump(10);
  EXPECT_NE(dump.find("..."), std::string::npos);
  EXPECT_NE(dump.find("e 0"), std::string::npos);
  EXPECT_NE(dump.find("e 99"), std::string::npos);
}

// Every schedule builds and destroys whole service runtimes (crash/restart,
// autoscaler activations, variant shadows, snapshot rejoin); none of them
// may stay allocated once run_schedule returns: the heap in use after 200
// consecutive durable + power-loss schedules is within 5% of the heap after
// 20.
TEST(SimMemoryTest, HeapStaysFlatAcrossConsecutiveSchedules) {
#if defined(EDGSTR_SANITIZED) || !defined(EDGSTR_HAS_MALLINFO2)
  GTEST_SKIP() << "needs glibc's mallinfo2 and no sanitizer allocator";
#else
  // Large blocks are mmapped and counted in hblkhd, not uordblks.
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  double after_20 = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ScheduleConfig config;
    config.seed = seed;
    config.durable = true;
    config.power_loss = true;
    run_schedule(config);
    if (seed == 20) after_20 = heap_in_use();
  }
  const double after_200 = heap_in_use();
  EXPECT_LE(std::abs(after_200 - after_20), 0.05 * after_20)
      << "heap in use: " << after_20 << " B after 20 schedules, " << after_200
      << " B after 200";
#endif
}

}  // namespace
}  // namespace edgstr::sim
