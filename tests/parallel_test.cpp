// Lane parallelism: mailbox backpressure, lane-scheduler determinism, and
// lane-count invariance of the replication graph — the fig9 scaled
// hierarchy and whole simulated schedules.
//
// These tests are the executable form of the determinism argument in
// src/runtime/lane_scheduler.h: the lanes only fan out each round's
// per-endpoint harvest, so replicated state, sync traffic and rounds to
// converge must be identical at any lane count. They are also the TSan
// targets for the parallel sections (label: parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "runtime/lane_scheduler.h"
#include "runtime/mailbox.h"
#include "scaled_hierarchy.h"
#include "sim/schedule.h"
#include "util/metrics.h"

namespace edgstr {
namespace {

// ------------------------------------------------------------------ mailbox --

TEST(MailboxTest, FifoWithBoundedCapacity) {
  runtime::Mailbox<int> box(3);
  EXPECT_TRUE(box.push(1));
  EXPECT_TRUE(box.push(2));
  EXPECT_TRUE(box.push(3));  // fills it; a fourth push would block
  EXPECT_EQ(box.high_water(), 3u);

  int v = 0;
  EXPECT_TRUE(box.pop(&v));
  EXPECT_EQ(v, 1);  // FIFO
  EXPECT_TRUE(box.push(4));
  for (const int want : {2, 3, 4}) {
    EXPECT_TRUE(box.pop(&v));
    EXPECT_EQ(v, want);
  }
  EXPECT_EQ(box.high_water(), 3u);
}

// Backpressure contract: a producer that outruns the consumer blocks on
// push() instead of dropping or deadlocking, and every item still arrives
// in order.
TEST(MailboxTest, BlockingPushYieldsUntilConsumerDrains) {
  constexpr int kItems = 500;
  runtime::Mailbox<int> box(4);  // far smaller than the item count

  std::vector<int> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    int v = 0;
    while (box.pop(&v)) received.push_back(v);
  });

  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(box.push(i));  // blocks when full; never fails while open
  }
  box.close();
  consumer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
  EXPECT_LE(box.high_water(), 4u);  // the bound really bounded the queue
}

TEST(MailboxTest, CloseDrainsPendingThenStops) {
  runtime::Mailbox<int> box(8);
  EXPECT_TRUE(box.push(7));
  EXPECT_TRUE(box.push(8));
  box.close();
  EXPECT_FALSE(box.push(9));  // closed: push refuses
  int v = 0;
  EXPECT_TRUE(box.pop(&v));  // pending items survive close
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(box.pop(&v));
  EXPECT_EQ(v, 8);
  EXPECT_FALSE(box.pop(&v));  // closed + drained
}

// ------------------------------------------------------------- lane scheduler --

TEST(LaneSchedulerTest, LaneAssignmentIsPureFunctionOfSeedAndKey) {
  runtime::LaneScheduler a(4, /*seed=*/11);
  runtime::LaneScheduler b(4, /*seed=*/11);
  runtime::LaneScheduler c(4, /*seed=*/12);

  bool seed_changes_some_assignment = false;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "replica" + std::to_string(i);
    const std::size_t lane = a.lane_for(key);
    EXPECT_LT(lane, 4u);
    EXPECT_EQ(lane, a.lane_for(key));  // stable within a scheduler
    EXPECT_EQ(lane, b.lane_for(key));  // and across same-seed schedulers
    if (c.lane_for(key) != lane) seed_changes_some_assignment = true;
  }
  EXPECT_TRUE(seed_changes_some_assignment);  // the seed actually salts
}

TEST(LaneSchedulerTest, SingleLaneRunsInlineOnCaller) {
  runtime::LaneScheduler sched(1, 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  bool ran_before_submit_returned = false;
  sched.submit(0, [&] {
    ran_on = std::this_thread::get_id();
    ran_before_submit_returned = true;
  });
  EXPECT_TRUE(ran_before_submit_returned);  // inline: done before return
  EXPECT_EQ(ran_on, caller);
  sched.barrier();  // no-op, must not hang
  EXPECT_EQ(sched.executed(0), 1u);
}

TEST(LaneSchedulerTest, BarrierWaitsForEveryTask) {
  runtime::LaneScheduler sched(4, 1);
  std::atomic<int> done{0};
  constexpr int kTasks = 256;
  for (int i = 0; i < kTasks; ++i) {
    sched.submit(static_cast<std::size_t>(i) % 4, [&done] {
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  sched.barrier();
  EXPECT_EQ(done.load(), kTasks);
  std::uint64_t executed = 0;
  for (std::size_t l = 0; l < 4; ++l) executed += sched.executed(l);
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kTasks));
}

// -------------------------------------------------------------- metrics merge --

TEST(MetricsMergeTest, CountersAddHistogramsMergeOrCopy) {
  util::MetricsRegistry a, b;
  a.add("x", 2);
  b.add("x", 3);
  b.add("y", 1);
  a.observe("h.shared", 1.0);
  b.observe("h.shared", 2.0);
  b.observe("h.only_b", 5.0);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value("x"), 5.0);
  EXPECT_DOUBLE_EQ(a.value("y"), 1.0);
  ASSERT_NE(a.histogram("h.shared"), nullptr);
  EXPECT_EQ(a.histogram("h.shared")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("h.shared")->sum(), 3.0);
  ASSERT_NE(a.histogram("h.only_b"), nullptr);  // absent histogram copied
  EXPECT_EQ(a.histogram("h.only_b")->count(), 1u);
}

// ---------------------------------------------------------- graph hierarchy --

/// Per-unit state hashes — what ReplicationGraph::converged() compares.
std::vector<std::uint64_t> unit_hashes(const runtime::ReplicaState& replica) {
  std::vector<std::uint64_t> out;
  for (const runtime::DocUnit& unit : replica.docs()) out.push_back(unit.doc->state_hash());
  return out;
}

struct HierarchyRun {
  std::string cloud_digest;
  std::uint64_t sync_bytes = 0;
  std::uint64_t sync_messages = 0;
  int converge_rounds = -1;
  std::size_t cloud_rows = 0;
  std::string sync_metrics;
};

/// The fig9 scaled scenario, shrunk: 8 edges under 2 regionals, 3 rounds
/// of 4 inserts per edge.
HierarchyRun run_hierarchy(std::size_t lanes) {
  bench::ScaledHierarchy world(/*edges=*/8, /*fanout=*/4, lanes);
  world.drive(/*rounds=*/3, /*ops_per_edge=*/4);
  HierarchyRun run;
  run.converge_rounds = world.rounds_to_converge();
  run.cloud_digest = world.cloud().state_digest();
  run.sync_bytes = world.graph().total_sync_bytes();
  run.sync_messages = world.graph().sync_messages();
  run.cloud_rows = world.cloud().tables().live_rows();
  run.sync_metrics = world.graph().metrics().format();
  const std::vector<std::uint64_t> cloud = unit_hashes(world.cloud());
  for (const std::string& edge : world.edge_ids()) {
    EXPECT_EQ(unit_hashes(world.graph().endpoint(edge)), cloud) << edge << " lanes=" << lanes;
  }
  return run;
}

TEST(GraphHierarchyTest, ConvergedStateIsLaneCountInvariant) {
  const HierarchyRun serial = run_hierarchy(1);
  EXPECT_GE(serial.converge_rounds, 1);
  EXPECT_EQ(serial.cloud_rows, 8u * 3u * 4u);  // every edge insert reached the cloud
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const HierarchyRun run = run_hierarchy(lanes);
    EXPECT_EQ(run.cloud_digest, serial.cloud_digest) << "lanes=" << lanes;
    EXPECT_EQ(run.sync_bytes, serial.sync_bytes) << "lanes=" << lanes;
    EXPECT_EQ(run.sync_messages, serial.sync_messages) << "lanes=" << lanes;
    EXPECT_EQ(run.converge_rounds, serial.converge_rounds) << "lanes=" << lanes;
    EXPECT_EQ(run.cloud_rows, serial.cloud_rows) << "lanes=" << lanes;
  }
}

// Same lane count twice: the graph's whole sync metrics registry — bytes
// and ops per endpoint and doc, digest hits, batch budgets — matches
// byte for byte.
TEST(GraphHierarchyTest, SameLanesRerunIsByteIdentical) {
  const HierarchyRun a = run_hierarchy(4);
  const HierarchyRun b = run_hierarchy(4);
  EXPECT_EQ(a.cloud_digest, b.cloud_digest);
  EXPECT_EQ(a.sync_metrics, b.sync_metrics);
  EXPECT_FALSE(a.sync_metrics.empty());
}

// ------------------------------------------------------------------ sim plane --

sim::ScheduleConfig small_sim(std::uint64_t seed, std::size_t lanes) {
  sim::ScheduleConfig config;
  config.seed = seed;
  config.rounds = 8;
  config.max_edges = 3;
  config.lanes = lanes;
  return config;
}

// The deployment's parallel sections (record_local harvest, convergence
// digests) commute, so the whole simulated schedule — trace and converged
// state — is lane-count-invariant.
TEST(SimParallelTest, ScheduleDigestsAreLaneCountInvariant) {
  for (const std::uint64_t seed : {7u, 21u, 42u}) {
    const sim::ScheduleResult serial = sim::run_schedule(small_sim(seed, 1));
    const sim::ScheduleResult parallel = sim::run_schedule(small_sim(seed, 4));
    EXPECT_TRUE(serial.passed) << "seed=" << seed;
    EXPECT_TRUE(parallel.passed) << "seed=" << seed;
    EXPECT_EQ(serial.trace_digest, parallel.trace_digest) << "seed=" << seed;
    EXPECT_EQ(serial.state_digest, parallel.state_digest) << "seed=" << seed;
    EXPECT_EQ(serial.requests, parallel.requests) << "seed=" << seed;
  }
}

// Same seed + same lane count: the exported telemetry bytes are identical,
// lanes > 1 included (thread-safe observability must not perturb them).
TEST(SimParallelTest, SameSeedTelemetryExportIsByteIdentical) {
  sim::ScheduleConfig config = small_sim(11, 4);
  config.capture_telemetry = true;
  const sim::ScheduleResult a = sim::run_schedule(config);
  const sim::ScheduleResult b = sim::run_schedule(config);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.metrics_snapshot, b.metrics_snapshot);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_FALSE(a.metrics_snapshot.empty());
}

// lanes=1 is the literal serial path: no scheduler is constructed, so the
// metrics snapshot carries no runtime.lanes.* keys and is byte-identical
// to what the pre-sharding code exported.
TEST(SimParallelTest, SerialLanesAddNoMetricKeys) {
  sim::ScheduleConfig config = small_sim(11, 1);
  config.capture_telemetry = true;
  const sim::ScheduleResult serial = sim::run_schedule(config);
  EXPECT_EQ(serial.metrics_snapshot.find("runtime.lanes."), std::string::npos);

  sim::ScheduleConfig parallel = small_sim(11, 4);
  parallel.capture_telemetry = true;
  EXPECT_NE(sim::run_schedule(parallel).metrics_snapshot.find("runtime.lanes."),
            std::string::npos);
}

}  // namespace
}  // namespace edgstr
