// sim_explore — seed-driven simulation explorer for the replication plane.
//
//   sim_explore --seed N [--rounds R] [--lanes L] [--workload W] [--trace]
//               [--no-variant-check] [--variant-fault] [--handoff-fault] [--slo]
//               [--durable] [--power-loss] [--durability-fault]
//               [--trace-out FILE] [--metrics-out FILE]
//               [--timeseries-out FILE] [--flight-out FILE]
//       Replays one schedule and prints its one-line report; --trace dumps
//       the full event trace (what you diff when chasing a failing seed).
//       --trace-out writes the run's span log as Chrome-trace JSON (open in
//       chrome://tracing or ui.perfetto.dev); --metrics-out writes the
//       metrics snapshot (counters + latency/staleness histograms) as JSON;
//       --timeseries-out writes the windowed time-series JSON (per-window
//       request rates, staleness, sync volume); --flight-out writes the
//       flight-recorder dump (recent per-host events) whether or not the
//       run failed.
//   sim_explore --sweep N [--start S] [--rounds R] [--lanes L] [--workload W]
//               [--no-variant-check] [--handoff-fault] [--slo]
//       Runs N consecutive seeds starting at S (default 1) and prints a
//       report per failure. Exits nonzero when any seed fails, with the
//       failing seeds listed last so CI logs surface them. The sweep
//       footer reports aggregate migrations, failed handoffs, variant
//       checks/divergences, and (under --slo) watchdog alert counts so CI
//       can archive per-scenario totals. Failing seeds print their
//       flight-recorder dump — the black box — after the report line.
//
// --workload W (default uniform) picks the adversarial traffic shape:
// uniform (legacy), zipf (hot keys), flash (crowd rounds), or churn
// (sessions migrating between proxies, exercising the migration-ryw
// invariant). The base fault schedule for a seed is identical under every
// shape.
//
// --slo runs the online SLO watchdog (obs::default_slo_rules) over the
// run's windowed time-series in forbid-alerts mode: any alert fails the
// seed with an `slo-false-positive` violation. This is the clean-sweep
// calibration gate — the default rules must stay silent on healthy seeds.
// --handoff-fault plants the deliberate handoff regression the
// handoff-fail-rate rule exists to catch (pair with --workload churn).
//
// --durable gives every edge a power-loss-aware durable op log: acked ops
// are fsynced, crashes recover from the durable image (snapshot + fsynced
// tail), rejoins ship snapshot + tail past the op-count gap threshold, and
// the durable-op-loss invariant holds every acked write to its fsync.
// --power-loss additionally tears the unsynced tail at a stream-drawn
// offset on every crash. --durability-fault plants the deliberate
// regression (the disk lies about fsync) the invariant exists to catch.
//
// --lanes L (default 1) runs the deployment's sharded runtime with L
// worker lanes. Traces, state digests, and time-series exports are
// lane-count-invariant, so a sweep at --lanes 4 checks the exact same
// invariants as the serial sweep — plus the thread-safety of the parallel
// sections under TSan.
//
// A failing seed is a complete reproduction: `sim_explore --seed N --trace`
// re-runs the identical topology, faults, crashes, and traffic — and the
// telemetry exports of two same-seed runs are byte-identical.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "sim/schedule.h"

namespace {

int usage() {
  std::cerr << "usage: sim_explore --seed N [--rounds R] [--lanes L] [--workload W] [--trace]\n"
            << "                   [--no-variant-check] [--variant-fault] [--handoff-fault] [--slo]\n"
            << "                   [--durable] [--power-loss] [--durability-fault]\n"
            << "                   [--trace-out FILE] [--metrics-out FILE]\n"
            << "                   [--timeseries-out FILE] [--flight-out FILE]\n"
            << "       sim_explore --sweep N [--start S] [--rounds R] [--lanes L]\n"
            << "                   [--workload W] [--no-variant-check] [--handoff-fault] [--slo]\n"
            << "                   [--durable] [--power-loss] [--durability-fault]\n"
            << "       W: uniform | zipf | flash | churn\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  // std::stoull skips leading whitespace and wraps a leading '-' to a huge
  // value ("-1" -> 2^64-1), so only a bare digit string is accepted.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  try {
    size_t pos = 0;
    const unsigned long long v = std::stoull(text, &pos);
    if (pos != text.size()) return false;
    *out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);

  bool sweep = false;
  bool trace = false;
  std::uint64_t seed = 0, count = 0, start = 1;
  std::string trace_out, metrics_out, timeseries_out, flight_out;
  edgstr::sim::ScheduleConfig config;
  bool have_target = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    if (arg == "--seed" && has_value && parse_u64(args[++i], &seed)) {
      sweep = false;
      have_target = true;
    } else if (arg == "--sweep" && has_value && parse_u64(args[++i], &count)) {
      sweep = true;
      have_target = true;
    } else if (arg == "--start" && has_value && parse_u64(args[++i], &start)) {
    } else if (arg == "--rounds" && has_value) {
      std::uint64_t rounds = 0;
      if (!parse_u64(args[++i], &rounds) || rounds == 0) return usage();
      config.rounds = static_cast<std::size_t>(rounds);
    } else if (arg == "--lanes" && has_value) {
      std::uint64_t lanes = 0;
      if (!parse_u64(args[++i], &lanes) || lanes == 0) return usage();
      config.lanes = static_cast<std::size_t>(lanes);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-out" && has_value) {
      trace_out = args[++i];
    } else if (arg == "--metrics-out" && has_value) {
      metrics_out = args[++i];
    } else if (arg == "--timeseries-out" && has_value) {
      timeseries_out = args[++i];
    } else if (arg == "--flight-out" && has_value) {
      flight_out = args[++i];
    } else if (arg == "--workload" && has_value) {
      if (!edgstr::workload::parse_workload_shape(args[++i], &config.workload)) return usage();
    } else if (arg == "--no-variant-check") {
      config.variant_check = false;
    } else if (arg == "--variant-fault") {
      config.variant_fault = true;
    } else if (arg == "--handoff-fault") {
      config.handoff_fault = true;
    } else if (arg == "--durable") {
      config.durable = true;
    } else if (arg == "--power-loss") {
      config.durable = true;
      config.power_loss = true;
    } else if (arg == "--durability-fault") {
      config.durable = true;
      config.durability_fault = true;
    } else if (arg == "--slo") {
      config.slo_watchdog = true;
      config.forbid_alerts = true;
    } else {
      return usage();
    }
  }
  if (!have_target) return usage();
  // A sweep window past 2^64-1 would wrap `start + count` and run no seeds
  // while still reporting the whole window as swept.
  if (sweep && start + count < start) return usage();

  if (!sweep) {
    config.seed = seed;
    config.capture_telemetry = !trace_out.empty() || !metrics_out.empty();
    config.capture_timeseries = config.capture_timeseries || !timeseries_out.empty();
    if (!flight_out.empty() && config.flight_ring == 0) config.flight_ring = 96;
    edgstr::sim::ScheduleResult result = edgstr::sim::run_schedule(config);
    std::cout << result.summary() << "\n";
    if (trace) std::cout << result.trace.dump() << "\n";
    if (!result.flight_dump.empty()) std::cout << result.flight_dump;
    bool io_ok = true;
    if (!trace_out.empty()) {
      io_ok = edgstr::obs::write_text_file(trace_out, result.chrome_trace + "\n") && io_ok;
    }
    if (!metrics_out.empty()) {
      io_ok = edgstr::obs::write_text_file(metrics_out, result.metrics_snapshot + "\n") && io_ok;
    }
    if (!timeseries_out.empty()) {
      io_ok = edgstr::obs::write_text_file(timeseries_out, result.timeseries + "\n") && io_ok;
    }
    if (!flight_out.empty()) {
      // --flight-out wants the dump regardless of verdict; a passing run's
      // result carries none, so re-dump is impossible here — instead the
      // harness attaches it only on failure. Write what we have (possibly
      // a note) so CI artifact steps never half-fail.
      const std::string text =
          result.flight_dump.empty() ? "flight recorder: run passed, no dump attached\n"
                                     : result.flight_dump;
      io_ok = edgstr::obs::write_text_file(flight_out, text) && io_ok;
    }
    if (!io_ok) return 2;
    return result.passed ? 0 : 1;
  }

  if (!trace_out.empty() || !metrics_out.empty() || !timeseries_out.empty() ||
      !flight_out.empty()) {
    std::cerr << "sim_explore: --*-out flags need a single --seed run\n";
    return usage();
  }

  std::vector<std::uint64_t> failing;
  std::size_t migrations = 0, handoffs_failed = 0, variant_divergences = 0;
  std::size_t slo_alerts = 0;
  std::size_t recoveries = 0, recovered_ops = 0, truncated_records = 0;
  std::uint64_t variant_checks = 0;
  for (std::uint64_t s = start; s < start + count; ++s) {
    config.seed = s;
    const edgstr::sim::ScheduleResult result = edgstr::sim::run_schedule(config);
    migrations += result.migrations;
    handoffs_failed += result.handoffs_failed;
    variant_checks += result.variant_checks;
    variant_divergences += result.variant_divergences;
    slo_alerts += result.slo_alerts.size();
    recoveries += result.durable_recoveries;
    recovered_ops += result.recovered_ops;
    truncated_records += result.truncated_records;
    if (!result.passed) {
      failing.push_back(s);
      std::cout << result.summary() << "\n";
      if (!result.flight_dump.empty()) std::cout << result.flight_dump;
    }
  }
  std::cout << "swept " << count << " seeds starting at " << start << ": " << failing.size()
            << " failed\n";
  std::cout << "workload=" << edgstr::workload::workload_shape_name(config.workload)
            << " migrations=" << migrations << " handoff_fail=" << handoffs_failed
            << " variant_checks=" << variant_checks
            << " variant_divergences=" << variant_divergences;
  if (config.slo_watchdog) std::cout << " slo_alerts=" << slo_alerts;
  if (config.durable) {
    std::cout << " recoveries=" << recoveries << " recovered_ops=" << recovered_ops
              << " truncated_records=" << truncated_records;
  }
  std::cout << "\n";
  if (!failing.empty()) {
    std::cout << "failing seeds:";
    for (const std::uint64_t s : failing) std::cout << " " << s;
    std::cout << "\nreplay with: sim_explore --trace --seed <seed>\n";
    return 1;
  }
  return 0;
}
