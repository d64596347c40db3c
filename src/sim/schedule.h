// Seed-driven schedule explorer (FoundationDB-style simulation testing).
//
// One uint64 seed fully determines a run: the replication topology, the
// number of edge replicas, the request interleaving at the proxies, the
// per-link loss and fault models, partition cuts and heals, node crashes
// and restarts, and the number of sync rounds between them. The run drives
// a real ThreeTierDeployment (transformed subject app, live proxy traffic,
// CRDT replication plane) on the simulated clock, then forces quiescence —
// heal everything, restart everything, sync to a fixed point — and checks
// the convergence invariants. A failing run reports its seed; re-running
// the same seed reproduces the failure byte-for-byte, trace included.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/watchdog.h"
#include "sim/invariants.h"
#include "sim/trace.h"
#include "workload/shapes.h"

namespace edgstr::sim {

struct ScheduleConfig {
  std::uint64_t seed = 1;

  /// Fault/traffic rounds before forced quiescence.
  std::size_t rounds = 24;
  /// Edge replica count is drawn from [2, max_edges].
  std::size_t max_edges = 4;

  bool enable_crashes = true;
  bool enable_partitions = true;
  bool enable_link_faults = true;  ///< loss, duplication, reorder, delay
  bool enable_compaction = true;   ///< periodic log compaction (exercises
                                   ///< the bootstrap-rejoin path)

  /// Export the run's telemetry: fills ScheduleResult::chrome_trace and
  /// metrics_snapshot with serialized JSON. Spans are recorded either way
  /// (the deployment always carries a telemetry plane); this only controls
  /// the serialization work.
  bool capture_telemetry = false;

  /// Worker lanes for the deployment's sharded runtime (default 1 = the
  /// serial path, byte-identical to pre-sharding builds). The schedule,
  /// trace, and state digest are lane-count-invariant — the parallelized
  /// sections commute — so a sweep can assert identical digests across
  /// lane counts. Note metrics_snapshot gains `runtime.lanes.*` keys when
  /// lanes > 1 (occupancy is a property of the sharding, not the run).
  std::size_t lanes = 1;

  /// Traffic shape on top of the base fault schedule. kUniform is the
  /// legacy per-burst key traffic, byte-identical to pre-workload builds.
  /// kZipf draws write keys from a seed-skewed hot-key distribution,
  /// kFlash compresses extra arrivals into seed-chosen crowd rounds, and
  /// kChurn adds migrating client sessions (below). All shape draws come
  /// from a *separate* RNG stream derived from `seed`, so the base
  /// topology/fault/crash/traffic schedule for a seed is the same under
  /// every shape — shapes add adversity, they never reshuffle it.
  workload::WorkloadShape workload = workload::WorkloadShape::kUniform;
  /// Client sessions that migrate between edge proxies mid-session
  /// (kChurn only). Each migration runs a session handoff flush and then
  /// checks read-your-writes at the new proxy (the `migration-ryw`
  /// invariant); a failed handoff (partition, crash, starved retries)
  /// lapses the obligation, mirroring the acked-op-loss crash rule.
  std::size_t sessions = 3;

  /// Online multi-variant execution: every serving runtime cross-checks
  /// each request against the legacy tree-walker shadow (response +
  /// RW-log), and any disagreement fails the run via the
  /// `variant-agreement` invariant. On by default — the whole point is a
  /// continuously-running guard; the shadows replay off-network, so the
  /// schedule bytes are unchanged. Turn off to time pure replication runs.
  bool variant_check = true;
  /// Deliberate-regression knob: plants a semantic fault on the legacy
  /// shadow (an UPDATE skew on replay), so a correct harness MUST report
  /// variant-agreement violations once data exists. Requires
  /// variant_check.
  bool variant_fault = false;

  // ---- windowed observability ---------------------------------------------

  /// Capture a windowed time-series of the run (request rates split
  /// local/forward/cloud, staleness samples, sync volume, crash/handoff
  /// counts) and serialize it into ScheduleResult::timeseries. Same seed =>
  /// byte-identical series, at any lane count. Off by default; exports of
  /// capture-off runs carry the exact pre-capture bytes.
  bool capture_timeseries = false;
  double timeseries_window_s = 1.0;
  /// Per-host flight-recorder ring (0 = off). On by default: the recorder
  /// is O(hosts x ring) memory, touches no export, and its dump is
  /// attached to ScheduleResult::flight_dump only when the run fails.
  std::size_t flight_ring = 96;
  /// Evaluate SLO watchdog rules online at window boundaries (forces
  /// time-series capture internally; the serialized export still obeys
  /// capture_timeseries). Alert details land in ScheduleResult::slo_alerts.
  bool slo_watchdog = false;
  /// Rules for the watchdog; empty = obs::default_slo_rules().
  std::vector<obs::SloRule> slo_rules;
  /// Alert assertion mode. forbid_alerts: any alert fails the run with an
  /// `slo-false-positive` violation (clean-sweep mode — the default rule
  /// set must stay silent on healthy seeds). require_alerts: each named
  /// rule must fire at least once or the run fails with `slo-missed-alert`
  /// (planted-fault mode). Both require slo_watchdog.
  bool forbid_alerts = false;
  std::vector<std::string> require_alerts;
  /// Deliberate-regression knob, the watchdog twin of variant_fault:
  /// every cross-host session handoff fails immediately. Invariants stay
  /// green (a failed handoff lawfully lapses the migration-ryw
  /// obligation) — only the handoff-failure-rate SLO rule catches it.
  /// Meaningful with the churn workload.
  bool handoff_fault = false;

  // ---- durability -----------------------------------------------------------

  /// Durable op logs on every edge: each edge fsyncs acked ops to a
  /// simulated power-loss-aware store and a crash recovers from the
  /// durable image (latest snapshot + fsynced tail) instead of the bare
  /// checkpoint. Adds the `durable-op-loss` invariant: a write acked at a
  /// durable edge (acked => fsynced, the proxy harvests at serve time)
  /// must be visible in that edge's recovered state immediately after the
  /// crash. All durability draws come from a separate RNG stream, so a
  /// seed's base topology/fault/traffic schedule is unchanged by this
  /// knob. Off (default) nothing durable exists and runs are
  /// byte-identical to pre-durability builds.
  bool durable = false;
  /// Power loss at arbitrary write offsets: each durable crash keeps a
  /// stream-drawn prefix of the victim's *unsynced* tail (modelling torn /
  /// partial records for recovery to truncate) instead of a clean cut at
  /// the fsync horizon. Requires `durable`.
  bool power_loss = false;
  /// Deliberate-regression knob, the durability twin of variant_fault:
  /// every durable edge's disk lies — fsync claims durability without
  /// providing it — so acked "durable" writes die with the power. A
  /// correct harness MUST flag `durable-op-loss` on (most) seeds that
  /// crash an edge holding data. Requires `durable`.
  bool durability_fault = false;
  /// Snapshot bootstrap threshold (ReplicationGraph::set_snapshot_bootstrap)
  /// applied when `durable` is on: a rejoiner whose advertised op gap
  /// reaches this ships snapshot + tail instead of op replay. 0 = replay
  /// only even when durable.
  std::uint64_t snapshot_bootstrap_ops = 32;
};

struct ScheduleResult {
  std::uint64_t seed = 0;
  bool passed = false;
  std::vector<Violation> violations;

  std::string topology;          ///< "star" | "star+mesh" | "hierarchy"
  std::string workload;          ///< "uniform" | "zipf" | "flash" | "churn"
  std::size_t edges = 0;
  std::size_t requests = 0;      ///< client requests issued
  std::size_t writes_acked = 0;  ///< writes acknowledged to the client
  std::size_t crashes = 0;
  std::size_t partitions = 0;
  std::size_t quiesce_rounds = 0;
  std::size_t migrations = 0;       ///< session proxy changes (kChurn)
  std::size_t handoffs_failed = 0;  ///< flushes that starved / had no path
  std::uint64_t variant_checks = 0; ///< requests cross-checked by harnesses
  std::size_t variant_divergences = 0;
  // Durability accounting (config.durable only; all zero otherwise).
  std::size_t durable_recoveries = 0;   ///< log recoveries run (one per crash)
  std::size_t recovered_ops = 0;        ///< ops replayed from durable logs
  std::size_t truncated_records = 0;    ///< torn/corrupt frames recovery cut

  EventTrace trace;
  std::uint64_t trace_digest = 0;  ///< byte-identity fingerprint of the run
  std::string state_digest;        ///< converged-state fingerprint (hex)

  /// Serialized telemetry (capture_telemetry only): a Perfetto-loadable
  /// Chrome-trace JSON document and a metrics snapshot (counters +
  /// histogram summaries). Same-seed runs produce identical strings.
  std::string chrome_trace;
  std::string metrics_snapshot;

  /// SLO alert details (slo_watchdog only), in firing order.
  std::vector<std::string> slo_alerts;
  /// Serialized windowed time-series (capture_timeseries only).
  std::string timeseries;
  /// Flight-recorder dump, attached only when the run FAILED (and a ring
  /// was configured) — the black box the nightly sweep uploads.
  std::string flight_dump;

  /// One-line report ("seed=7 topology=star edges=3 ... PASS").
  std::string summary() const;
};

/// Runs one fully deterministic schedule. Two calls with the same config
/// return identical traces, digests, and verdicts.
ScheduleResult run_schedule(const ScheduleConfig& config);

}  // namespace edgstr::sim
