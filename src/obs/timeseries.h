// Fixed-window time-series telemetry on the simulated clock.
//
// The metrics registry answers "what happened over the whole run"; the
// time-series answers "when". Every sample carries a simulated timestamp
// and lands in the window floor(t / window_s) — a value exactly on a
// boundary belongs to the window it *opens* — so per-window request rates,
// staleness samples, and sync volumes survive aggregation with their time
// dimension intact. ROADMAP item 3's placement planner and the paper's §7
// elastic activation both consume exactly this windowed view.
//
// Determinism: windows are keyed by the netsim clock and stored in sorted
// maps, so same-seed runs export byte-identical series. The replication
// plane is single-threaded, so samples arrive in one order per seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace edgstr::obs {

/// Windowed counters, gauges, and histograms. Names are independent per
/// kind (a counter and a gauge may share a name, though call sites don't).
class TimeSeries {
 public:
  explicit TimeSeries(double window_s = 1.0);

  double window_s() const { return window_s_; }
  /// Window holding simulated time `t`. A sample exactly on a boundary
  /// lands in the window it opens: window_index(k * window_s) == k.
  std::int64_t window_index(double t) const;

  // --- recording (time-addressed) ------------------------------------------

  /// Adds `delta` to the named counter in `t`'s window.
  void add(double t, const std::string& name, double delta = 1.0);
  /// Overwrites the named gauge in `t`'s window (last write wins).
  void set(double t, const std::string& name, double value);
  /// One histogram sample into `t`'s window (default latency buckets on
  /// first touch, or `bounds` when given; a window's bounds never change).
  void observe(double t, const std::string& name, double value);
  void observe(double t, const std::string& name, double value,
               const std::vector<double>& bounds);

  /// Window-addressed counter add — the watchdog records alerts into the
  /// *offending* window, which is already behind the clock when the rule
  /// fires at the boundary.
  void add_at(std::int64_t window, const std::string& name, double delta = 1.0);

  // --- reading -------------------------------------------------------------

  /// Counter value in one window (0 when untouched).
  double counter_at(const std::string& name, std::int64_t window) const;
  /// Counter summed over every window <= `window` (the whole series when
  /// `window` is the last one).
  double counter_through(const std::string& name, std::int64_t window) const;
  /// Gauge value in one window, or `fallback` when untouched.
  double gauge_at(const std::string& name, std::int64_t window, double fallback = 0) const;
  /// Windowed histogram, or nullptr when that window saw no sample.
  const util::Histogram* histogram_at(const std::string& name, std::int64_t window) const;

  /// Highest window index any sample touched; -1 when empty.
  std::int64_t last_window() const { return last_window_; }
  bool empty() const;
  void clear();

  // Sorted storage, exposed for the exporters.
  using Windows = std::map<std::int64_t, double>;
  struct HistogramSeries {
    std::map<std::int64_t, util::Histogram> windows;
  };
  const std::map<std::string, Windows>& counters() const { return counters_; }
  const std::map<std::string, Windows>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramSeries>& histograms() const { return histograms_; }

 private:
  double window_s_;
  std::int64_t last_window_ = -1;
  std::map<std::string, Windows> counters_;
  std::map<std::string, Windows> gauges_;
  std::map<std::string, HistogramSeries> histograms_;
};

}  // namespace edgstr::obs
