// bench_obs — what the observability plane costs when it is ON.
//
// The time-series capture, flight recorder, and SLO watchdog are sold as
// "cheap enough to leave on in every sim run". This bench holds that claim
// to numbers, A/B style: the same seeded schedule runs with the full obs
// plane off and on, and the headline metric is the wall-clock ratio
// (min-of-reps on both arms, so scheduler noise cancels out rather than
// inflating one side). The budget is 5%: obs.overhead.ratio must stay at
// or below 1.05, and the scaled-down twin in tests/bench_regression_test.cpp
// gates exactly that.
//
// Two hot-path micro numbers ride along (ns per TimeSeries::add, ns per
// FlightRecorder::record) so a regression in the ratio can be bisected to
// the recording primitive without re-profiling, plus a determinism check:
// the capture-on run must reproduce the capture-off run's trace and state
// digests exactly — observation must not perturb the schedule.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "sim/schedule.h"
#include "workload/shapes.h"

using namespace edgstr;
using namespace edgstr::bench;

namespace {

util::MetricsRegistry g_reg;  ///< headline numbers, dumped from main()

sim::ScheduleConfig arm_config(bool obs_on) {
  sim::ScheduleConfig config;
  config.seed = 303;
  config.rounds = 16;
  // Churn exercises every recording site: handoffs, staleness samples,
  // crashes/rejoins, and per-request counters.
  config.workload = workload::WorkloadShape::kChurn;
  config.capture_timeseries = obs_on;
  config.flight_ring = obs_on ? 96 : 0;
  config.slo_watchdog = obs_on;
  return config;
}

/// Wall-clock milliseconds for one arm, minimum over `reps` runs.
double min_run_ms(const sim::ScheduleConfig& config, int reps, std::uint64_t* digest) {
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const sim::ScheduleResult result = sim::run_schedule(config);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (best < 0 || ms < best) best = ms;
    if (digest) *digest = result.trace_digest;
  }
  return best;
}

void run_obs_bench() {
  std::printf("\n=== Observability overhead ===\n\n");
  constexpr int kReps = 5;

  std::uint64_t digest_off = 0, digest_on = 0;
  const double off_ms = min_run_ms(arm_config(false), kReps, &digest_off);
  const double on_ms = min_run_ms(arm_config(true), kReps, &digest_on);
  const double ratio = on_ms / off_ms;
  const bool digests_match = digest_off == digest_on;

  g_reg.set("obs.overhead.off_ms", off_ms);
  g_reg.set("obs.overhead.on_ms", on_ms);
  g_reg.set("obs.overhead.ratio", ratio);
  g_reg.set("obs.overhead.digest_match", digests_match ? 1.0 : 0.0);
  std::printf("schedule A/B   off=%.2fms on=%.2fms ratio=%.3f (budget 1.05) digests=%s\n", off_ms,
              on_ms, ratio, digests_match ? "match" : "DIVERGED");

  // ---- recording primitives, in isolation ---------------------------------
  {
    constexpr std::size_t kOps = 1000000;
    obs::TimeSeries series(1.0);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      series.add(double(i % 64) * 0.25, "bench.counter");
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double add_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / kOps;
    g_reg.set("obs.overhead.timeseries_add_ns", add_ns);
    std::printf("TimeSeries     add x%zu        %.1f ns/op\n", kOps, add_ns);
  }
  {
    constexpr std::size_t kOps = 1000000;
    obs::FlightRecorder flight(96);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      flight.record(double(i) * 0.001, "edge0", "bench", "detail");
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double rec_ns = std::chrono::duration<double, std::nano>(t1 - t0).count() / kOps;
    g_reg.set("obs.overhead.flight_record_ns", rec_ns);
    std::printf("FlightRecorder record x%zu     %.1f ns/op (ring=96)\n", kOps, rec_ns);
  }

  std::printf("\nA/B arms share one seed; capture must not perturb the schedule.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  run_obs_bench();
  dump_metrics_json(g_reg, "obs");
  return 0;
}
