// Online SLO watchdog over the windowed time-series.
//
// Rules are declarative predicates over one time-series metric, evaluated
// once per completed window (a window is complete when the clock has moved
// past its upper boundary). Three rule shapes cover the SLOs the paper's
// deployments care about:
//
//   kQuantile  q-quantile of the window's histogram stays under a bound,
//              alerting after `windows` consecutive violations
//              (p95(staleness.seconds) < X for k windows)
//   kRate      per-window counter stays under a bound, same streak
//              semantics (rate(handoff.fail) < Y)
//   kTotal     cumulative counter never exceeds a bound; fires once, at
//              the window where the total first crossed (divergences == 0)
//
// An alert names the *offending* window — the evidence, not the detection
// time — and is recorded three ways: in alerts(), as a
// `watchdog.alert.<rule>` counter in that window of the time-series, and
// as an "alert" event in the flight recorder. Evaluation consumes only
// completed windows in order, so alerts are deterministic: same seed, same
// alerts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/timeseries.h"

namespace edgstr::obs {

struct SloRule {
  enum class Kind { kQuantile, kRate, kTotal };

  std::string name;    ///< rule id ("staleness-p95"); also the alert key
  Kind kind = Kind::kQuantile;
  std::string metric;  ///< time-series metric the rule watches
  double q = 0.95;     ///< kQuantile only
  double threshold = 0;
  /// Consecutive violating windows before alerting (kQuantile/kRate). A
  /// window with no data resets the streak.
  std::size_t windows = 1;
};

struct SloAlert {
  std::string rule;
  std::string metric;
  std::int64_t window = 0;  ///< the offending window (last of the streak)
  double value = 0;         ///< observed value that violated the bound
  double threshold = 0;
  std::size_t consecutive = 0;  ///< streak length when the alert fired

  /// "staleness-p95: staleness.seconds=41.2 >= 30 for 3 windows, window 17"
  std::string detail() const;
};

/// The default rule set the sim harness evaluates under --slo. Thresholds
/// are calibrated against the sweep corpus: generous enough that a clean
/// 1000-seed uniform sweep stays silent (no false positives), tight enough
/// that the planted faults (handoff_fault, variant_fault) and genuinely
/// diverging runs fire.
std::vector<SloRule> default_slo_rules();

class Watchdog {
 public:
  /// `series` must outlive the watchdog; it is written back to (alert
  /// counters land in the offending windows).
  Watchdog(TimeSeries* series, std::vector<SloRule> rules);

  /// Evaluates every window completed strictly before `now`, in order.
  /// Call at (or after) window boundaries — typically once per settled
  /// sync round. `flight` (optional) receives one "alert" event per alert.
  void poll(double now, FlightRecorder* flight = nullptr);

  /// Evaluates all remaining windows through the last one any sample
  /// touched — the final, possibly partial window included. Call once at
  /// the end of a run.
  void finish(FlightRecorder* flight = nullptr);

  const std::vector<SloRule>& rules() const { return rules_; }
  const std::vector<SloAlert>& alerts() const { return alerts_; }
  /// Alerts fired by the named rule.
  std::size_t alert_count(const std::string& rule) const;

 private:
  void evaluate_window(std::int64_t window, FlightRecorder* flight);

  TimeSeries* series_;
  std::vector<SloRule> rules_;
  std::vector<std::size_t> streak_;    ///< per rule, consecutive violations
  std::vector<bool> total_fired_;      ///< kTotal rules fire at most once
  std::vector<SloAlert> alerts_;
  std::int64_t next_window_ = 0;  ///< first window not yet evaluated
};

}  // namespace edgstr::obs
