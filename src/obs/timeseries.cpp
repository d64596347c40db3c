#include "obs/timeseries.h"

#include <cmath>
#include <stdexcept>

namespace edgstr::obs {

TimeSeries::TimeSeries(double window_s) : window_s_(window_s) {
  if (!(window_s > 0)) throw std::invalid_argument("TimeSeries: window_s must be > 0");
}

std::int64_t TimeSeries::window_index(double t) const {
  return static_cast<std::int64_t>(std::floor(t / window_s_));
}

void TimeSeries::add(double t, const std::string& name, double delta) {
  add_at(window_index(t), name, delta);
}

void TimeSeries::add_at(std::int64_t window, const std::string& name, double delta) {
  counters_[name][window] += delta;
  last_window_ = std::max(last_window_, window);
}

void TimeSeries::set(double t, const std::string& name, double value) {
  const std::int64_t window = window_index(t);
  gauges_[name][window] = value;
  last_window_ = std::max(last_window_, window);
}

void TimeSeries::observe(double t, const std::string& name, double value) {
  const std::int64_t window = window_index(t);
  auto& windows = histograms_[name].windows;
  auto it = windows.find(window);
  if (it == windows.end()) it = windows.emplace(window, util::Histogram()).first;
  it->second.observe(value);
  last_window_ = std::max(last_window_, window);
}

void TimeSeries::observe(double t, const std::string& name, double value,
                         const std::vector<double>& bounds) {
  const std::int64_t window = window_index(t);
  auto& windows = histograms_[name].windows;
  auto it = windows.find(window);
  if (it == windows.end()) it = windows.emplace(window, util::Histogram(bounds)).first;
  it->second.observe(value);
  last_window_ = std::max(last_window_, window);
}

double TimeSeries::counter_at(const std::string& name, std::int64_t window) const {
  auto series = counters_.find(name);
  if (series == counters_.end()) return 0;
  auto it = series->second.find(window);
  return it == series->second.end() ? 0 : it->second;
}

double TimeSeries::counter_through(const std::string& name, std::int64_t window) const {
  auto series = counters_.find(name);
  if (series == counters_.end()) return 0;
  double total = 0;
  for (const auto& [w, value] : series->second) {
    if (w > window) break;  // sorted map: everything after is later
    total += value;
  }
  return total;
}

double TimeSeries::gauge_at(const std::string& name, std::int64_t window, double fallback) const {
  auto series = gauges_.find(name);
  if (series == gauges_.end()) return fallback;
  auto it = series->second.find(window);
  return it == series->second.end() ? fallback : it->second;
}

const util::Histogram* TimeSeries::histogram_at(const std::string& name,
                                                std::int64_t window) const {
  auto series = histograms_.find(name);
  if (series == histograms_.end()) return nullptr;
  auto it = series->second.windows.find(window);
  return it == series->second.windows.end() ? nullptr : &it->second;
}

bool TimeSeries::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void TimeSeries::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  last_window_ = -1;
}

}  // namespace edgstr::obs
