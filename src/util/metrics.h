// Named-counter + fixed-bucket-histogram registry for runtime
// instrumentation.
//
// The replication plane records per-endpoint / per-doc sync statistics
// (rounds, ops shipped, bytes by doc unit, staleness) into one of
// these; the request path records service-latency histograms; benches and
// the CLI print or export them. Counters and histograms are created on
// first touch — no registration step — and live in sorted maps so printed
// output is deterministic. Metric names follow `layer.component.name`
// (e.g. `runtime.request.latency.local`, `sync.round.bytes`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace edgstr::util {

/// Fixed-bucket histogram with quantile estimation. Buckets are defined by
/// sorted upper bounds; values above the last bound land in an implicit
/// overflow bucket. Observed min/max are tracked exactly, so quantile
/// interpolation is tight at the distribution's edges.
class Histogram {
 public:
  /// `bounds` must be sorted ascending and non-empty.
  explicit Histogram(std::vector<double> bounds = default_latency_bounds());

  void observe(double value);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Estimated q-quantile (q clamped to [0, 1]) by linear interpolation
  /// inside the bucket holding the target rank; 0 when empty. Error is
  /// bounded by the width of that bucket.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Merges another histogram; bucket layouts must match.
  void merge(const Histogram& other);
  void reset();

  /// Latency ladder in seconds: 0.1 ms .. 60 s on a 1-2-5 progression.
  static std::vector<double> default_latency_bounds();
  /// Magnitude ladder for counts/bytes: 1 .. 1e6 on a 1-2-5 progression.
  static std::vector<double> default_count_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 (overflow last)
  std::size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricsRegistry {
 public:
  // --- counters / gauges ---------------------------------------------------

  /// Adds `delta` to the named counter (creating it at zero).
  void add(const std::string& name, double delta = 1.0) { counters_[name] += delta; }

  /// Overwrites the named counter (gauge semantics).
  void set(const std::string& name, double value) { counters_[name] = value; }

  /// Current value; zero when the counter was never touched.
  double value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  /// Counters whose names start with `prefix` (empty = all), sorted.
  std::vector<std::pair<std::string, double>> snapshot(const std::string& prefix = {}) const;

  /// Sum over every counter whose name starts with `prefix`.
  double sum(const std::string& prefix) const;

  // --- histograms ----------------------------------------------------------

  /// Records one sample into the named histogram, creating it on first
  /// touch with the default latency buckets (or `bounds`, when given; the
  /// bounds of an existing histogram are never changed).
  void observe(const std::string& name, double value);
  void observe(const std::string& name, double value, const std::vector<double>& bounds);

  /// Named histogram, or nullptr when it was never observed.
  const Histogram* histogram(const std::string& name) const;

  /// Estimated quantile of the named histogram; 0 when absent.
  double quantile(const std::string& name, double q) const;

  /// Histograms whose names start with `prefix` (empty = all), sorted.
  std::vector<std::pair<std::string, const Histogram*>> histograms(
      const std::string& prefix = {}) const;

  // --- registry-wide -------------------------------------------------------

  /// Drops counters AND histograms whose names start with `prefix`
  /// (empty = all).
  void reset(const std::string& prefix = {});

  /// "name value" lines for every counter under `prefix`, followed by one
  /// summary line per histogram (count/mean/p50/p95/p99), sorted by name.
  std::string format(const std::string& prefix = {}) const;

  /// Number of counters (histograms are counted separately).
  std::size_t size() const { return counters_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace edgstr::util
