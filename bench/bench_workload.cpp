// Adversarial workload plane: what the three shaped scenarios do to the
// deployment, in one deterministic table.
//
//   zipf  — hot-key write skew through a full fault schedule: how much of
//           the write volume the top sensors absorb, and how many requests
//           the multi-variant harness cross-checked along the way.
//   flash — flash-crowd injection on a Poisson arrival schedule: count
//           conservation plus the peak one-second arrival pileup the
//           compression produces.
//   churn — migrating client sessions: how many proxy handoffs a seeded
//           schedule performs and how many starve.
//
// Everything is seed-derived (no wall-clock numbers), so the headline
// metrics in BENCH_workload.json reproduce bit-for-bit on any machine and
// the scaled-down twin in tests/bench_regression_test.cpp can gate them.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "sim/schedule.h"
#include "workload/shapes.h"

using namespace edgstr;
using namespace edgstr::bench;

namespace {

util::MetricsRegistry g_reg;  ///< headline numbers, dumped from main()

/// Max arrivals inside any sliding 1-second window.
double peak_window(const workload::ArrivalSchedule& schedule) {
  const std::vector<double>& times = schedule.times();
  std::size_t best = 0, lo = 0;
  for (std::size_t hi = 0; hi < times.size(); ++hi) {
    while (times[hi] - times[lo] > 1.0) ++lo;
    best = std::max(best, hi - lo + 1);
  }
  return double(best);
}

void run_workload_bench() {
  std::printf("\n=== Adversarial workload plane ===\n\n");

  // ---- zipf hot keys through the sim --------------------------------------
  {
    const workload::KeyDistribution dist = workload::KeyDistribution::zipf(16, 1.2);
    sim::ScheduleConfig config;
    config.seed = 101;
    config.rounds = 16;
    config.workload = workload::WorkloadShape::kZipf;
    const sim::ScheduleResult result = sim::run_schedule(config);
    g_reg.set("workload.zipf.hot_key_share", dist.top_share(3));
    g_reg.set("workload.zipf.acked", double(result.writes_acked));
    g_reg.set("workload.variant.checks", double(result.variant_checks));
    g_reg.set("workload.variant.divergences", double(result.variant_divergences));
    std::printf("zipf   seed=%llu top3_share=%.3f acked=%zu vchecks=%llu vdiv=%zu %s\n",
                (unsigned long long)config.seed, dist.top_share(3), result.writes_acked,
                (unsigned long long)result.variant_checks, result.variant_divergences,
                result.passed ? "PASS" : "FAIL");
  }

  // ---- flash-crowd time warp ----------------------------------------------
  {
    const workload::ArrivalSchedule base = workload::ArrivalSchedule::poisson(40, 30.0, 7);
    workload::FlashCrowdSpec spec;
    spec.crowds = 3;
    spec.crowd_duration_s = 4.0;
    spec.compression = 5.0;
    const workload::ArrivalSchedule warped = workload::inject_flash_crowds(base, spec, 7);
    g_reg.set("workload.flash.arrivals", double(warped.size()));
    g_reg.set("workload.flash.peak_window", peak_window(warped));
    g_reg.set("workload.flash.base_peak_window", peak_window(base));
    std::printf("flash  arrivals=%zu (conserved=%s) peak_1s=%.0f (base %.0f)\n", warped.size(),
                warped.size() == base.size() ? "yes" : "NO", peak_window(warped),
                peak_window(base));
  }

  // ---- migrating sessions -------------------------------------------------
  {
    sim::ScheduleConfig config;
    config.seed = 202;
    config.rounds = 16;
    config.workload = workload::WorkloadShape::kChurn;
    const sim::ScheduleResult result = sim::run_schedule(config);
    g_reg.set("workload.churn.migrations", double(result.migrations));
    g_reg.set("workload.churn.handoff_fail", double(result.handoffs_failed));
    g_reg.set("workload.churn.acked", double(result.writes_acked));
    std::printf("churn  seed=%llu migrations=%zu handoff_fail=%zu acked=%zu %s\n",
                (unsigned long long)config.seed, result.migrations, result.handoffs_failed,
                result.writes_acked, result.passed ? "PASS" : "FAIL");
  }
  std::printf("\nAll numbers are seed-derived; BENCH_workload.json is byte-reproducible.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  run_workload_bench();
  dump_metrics_json(g_reg, "workload");
  return 0;
}
