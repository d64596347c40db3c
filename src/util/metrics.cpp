#include "util/metrics.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/strings.h"

namespace edgstr::util {

// ------------------------------------------------------------- Histogram --

namespace {

/// 1-2-5 ladder from `lo` up to (and including) the first value >= `hi`.
std::vector<double> ladder_125(double lo, double hi) {
  std::vector<double> bounds;
  double decade = lo;
  while (true) {
    for (const double step : {1.0, 2.0, 5.0}) {
      const double bound = decade * step;
      bounds.push_back(bound);
      if (bound >= hi) return bounds;
    }
    decade *= 10;
  }
}

}  // namespace

std::vector<double> Histogram::default_latency_bounds() { return ladder_125(1e-4, 60.0); }

std::vector<double> Histogram::default_count_bounds() { return ladder_125(1.0, 1e6); }

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: empty bucket bounds");
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be sorted");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[std::size_t(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * double(count_);
  double cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cumulative + double(counts_[i]);
    if (next >= target) {
      // Linear interpolation inside bucket i; the observed min/max bound
      // the edge buckets tighter than the nominal ladder would.
      double lo = i == 0 ? min_ : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : max_;
      lo = std::max(lo, min_);
      hi = std::min(hi, max_);
      if (hi <= lo) return lo;
      const double fraction = (target - cumulative) / double(counts_[i]);
      return lo + fraction * (hi - lo);
    }
    cumulative = next;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument("Histogram::merge: bucket layouts differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  counts_.assign(bounds_.size() + 1, 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
}

// ------------------------------------------------------- MetricsRegistry --

std::vector<std::pair<std::string, double>> MetricsRegistry::snapshot(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, value] : counters_) {
    if (prefix.empty() || starts_with(name, prefix)) out.emplace_back(name, value);
  }
  return out;
}

double MetricsRegistry::sum(const std::string& prefix) const {
  double total = 0;
  for (const auto& [name, value] : counters_) {
    if (starts_with(name, prefix)) total += value;
  }
  return total;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(name, Histogram()).first;
  it->second.observe(value);
}

void MetricsRegistry::observe(const std::string& name, double value,
                              const std::vector<double>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(name, Histogram(bounds)).first;
  it->second.observe(value);
}

const Histogram* MetricsRegistry::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

double MetricsRegistry::quantile(const std::string& name, double q) const {
  const Histogram* h = histogram(name);
  return h ? h->quantile(q) : 0.0;
}

std::vector<std::pair<std::string, const Histogram*>> MetricsRegistry::histograms(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const auto& [name, histogram] : histograms_) {
    if (prefix.empty() || starts_with(name, prefix)) out.emplace_back(name, &histogram);
  }
  return out;
}

void MetricsRegistry::reset(const std::string& prefix) {
  if (prefix.empty()) {
    counters_.clear();
    histograms_.clear();
    return;
  }
  for (auto it = counters_.begin(); it != counters_.end();) {
    it = starts_with(it->first, prefix) ? counters_.erase(it) : std::next(it);
  }
  for (auto it = histograms_.begin(); it != histograms_.end();) {
    it = starts_with(it->first, prefix) ? histograms_.erase(it) : std::next(it);
  }
}

std::string MetricsRegistry::format(const std::string& prefix) const {
  std::string out;
  char line[320];
  for (const auto& [name, value] : snapshot(prefix)) {
    // Counters are integral in practice; print without trailing zeros.
    if (value == static_cast<double>(static_cast<long long>(value))) {
      std::snprintf(line, sizeof(line), "%-48s %12lld\n", name.c_str(),
                    static_cast<long long>(value));
    } else {
      std::snprintf(line, sizeof(line), "%-48s %12.2f\n", name.c_str(), value);
    }
    out += line;
  }
  for (const auto& [name, histogram] : histograms(prefix)) {
    std::snprintf(line, sizeof(line),
                  "%-48s count=%zu mean=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g\n",
                  name.c_str(), histogram->count(), histogram->mean(),
                  histogram->quantile(0.50), histogram->quantile(0.95),
                  histogram->quantile(0.99), histogram->max());
    out += line;
  }
  return out;
}

}  // namespace edgstr::util
