// Windowed time-series, flight recorder, and SLO watchdog unit tests.
//
// The export-facing properties (byte-identity, capture-off purity) live in
// obs_test.cpp and sim_test.cpp; this file pins the semantics the exports
// are built on: window placement at boundaries, merge discipline, ring
// wraparound, and the watchdog's streak / no-data / fire-once rules.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"

namespace edgstr {
namespace {

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeriesTest, BoundarySampleLandsInTheWindowItOpens) {
  obs::TimeSeries series(2.0);
  EXPECT_EQ(series.window_index(0.0), 0);
  EXPECT_EQ(series.window_index(1.999), 0);
  EXPECT_EQ(series.window_index(2.0), 1);  // exactly on the boundary
  EXPECT_EQ(series.window_index(3.5), 1);
  EXPECT_EQ(series.window_index(4.0), 2);

  series.add(1.999, "req");
  series.add(2.0, "req");
  EXPECT_EQ(series.counter_at("req", 0), 1.0);
  EXPECT_EQ(series.counter_at("req", 1), 1.0);
  EXPECT_EQ(series.counter_at("req", 2), 0.0);
}

TEST(TimeSeriesTest, CountersAccumulateAndSumThroughGaps) {
  obs::TimeSeries series(1.0);
  series.add(0.1, "ops", 2.0);
  series.add(0.9, "ops", 3.0);
  series.add(4.5, "ops", 1.0);  // windows 1..3 untouched
  EXPECT_EQ(series.counter_at("ops", 0), 5.0);
  EXPECT_EQ(series.counter_at("ops", 2), 0.0);
  EXPECT_EQ(series.counter_through("ops", 0), 5.0);
  EXPECT_EQ(series.counter_through("ops", 3), 5.0);
  EXPECT_EQ(series.counter_through("ops", 4), 6.0);
  EXPECT_EQ(series.counter_through("missing", 4), 0.0);
  EXPECT_EQ(series.last_window(), 4);
}

TEST(TimeSeriesTest, GaugesLastWriteWinsWithinAWindow) {
  obs::TimeSeries series(1.0);
  series.set(0.2, "depth", 7.0);
  series.set(0.8, "depth", 3.0);
  EXPECT_EQ(series.gauge_at("depth", 0), 3.0);
  EXPECT_EQ(series.gauge_at("depth", 1, -1.0), -1.0);  // fallback when untouched
}

TEST(TimeSeriesTest, HistogramsArePerWindow) {
  obs::TimeSeries series(1.0);
  series.observe(0.1, "lat", 0.005);
  series.observe(0.2, "lat", 0.010);
  series.observe(1.5, "lat", 0.020);
  ASSERT_NE(series.histogram_at("lat", 0), nullptr);
  EXPECT_EQ(series.histogram_at("lat", 0)->count(), 2u);
  ASSERT_NE(series.histogram_at("lat", 1), nullptr);
  EXPECT_EQ(series.histogram_at("lat", 1)->count(), 1u);
  EXPECT_EQ(series.histogram_at("lat", 2), nullptr);
  EXPECT_EQ(series.histogram_at("missing", 0), nullptr);
}

TEST(TimeSeriesTest, EmptyClearAndAddAt) {
  obs::TimeSeries series(1.0);
  EXPECT_TRUE(series.empty());
  EXPECT_EQ(series.last_window(), -1);
  series.add_at(5, "alerts");  // window-addressed, no clock involved
  EXPECT_EQ(series.counter_at("alerts", 5), 1.0);
  EXPECT_EQ(series.last_window(), 5);
  series.clear();
  EXPECT_TRUE(series.empty());
  EXPECT_EQ(series.last_window(), -1);
}

TEST(TimeSeriesTest, RejectsNonPositiveWindow) {
  EXPECT_THROW(obs::TimeSeries(0.0), std::invalid_argument);
  EXPECT_THROW(obs::TimeSeries(-1.0), std::invalid_argument);
}

// ------------------------------------------------------------ FlightRecorder

TEST(FlightRecorderTest, RingWraparoundKeepsTheNewestEvents) {
  obs::FlightRecorder flight(4);
  for (int i = 0; i < 10; ++i) {
    flight.record(double(i), "edge0", "send", "n=" + std::to_string(i));
  }
  EXPECT_EQ(flight.recorded(), 10u);
  EXPECT_EQ(flight.retained(), 4u);
  const std::vector<obs::FlightEvent> events = flight.dump();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first (serials are 1-based, so events 7..10 survive),
  // recording order preserved across the wrap.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].serial, 7u + i);
    EXPECT_EQ(events[i].detail, "n=" + std::to_string(6 + int(i)));
  }
}

TEST(FlightRecorderTest, PerHostRingsKeepChattyHostsFromEvictingQuietOnes) {
  obs::FlightRecorder flight(4);
  flight.record(0.5, "edge1", "crash", "epoch=1");  // the rare event
  for (int i = 0; i < 100; ++i) flight.record(1.0 + i, "edge0", "send", "flood");
  bool crash_survived = false;
  for (const obs::FlightEvent& event : flight.dump()) {
    if (event.host == "edge1" && event.kind == "crash") crash_survived = true;
  }
  EXPECT_TRUE(crash_survived);
  EXPECT_EQ(flight.retained(), 5u);  // 4 flood events + the crash
}

TEST(FlightRecorderTest, DumpMergesHostsInArrivalOrder) {
  obs::FlightRecorder flight(8);
  flight.record(1.0, "b", "send", "1");
  flight.record(2.0, "a", "apply", "2");
  flight.record(3.0, "b", "send", "3");
  const std::vector<obs::FlightEvent> events = flight.dump();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].serial, i + 1);
  EXPECT_EQ(events[1].host, "a");
}

TEST(FlightRecorderTest, DumpTextNamesCountsAndFormatsLines) {
  obs::FlightRecorder flight(4);
  for (int i = 0; i < 6; ++i) flight.record(12.345678, "edge1", "crash", "epoch=2");
  const std::string text = flight.dump_text();
  EXPECT_NE(text.find("6 events recorded"), std::string::npos) << text;
  EXPECT_NE(text.find("4 retained"), std::string::npos) << text;
  EXPECT_NE(text.find("12.345678"), std::string::npos) << text;
  EXPECT_NE(text.find("crash"), std::string::npos) << text;
  EXPECT_NE(text.find("epoch=2"), std::string::npos) << text;
}

TEST(FlightRecorderTest, ZeroRingIsRejected) {
  EXPECT_THROW(obs::FlightRecorder(0), std::invalid_argument);
}

// ------------------------------------------------------------------ Watchdog

obs::SloRule rate_rule(const std::string& metric, double threshold, std::size_t windows) {
  obs::SloRule rule;
  rule.name = "rate-" + metric;
  rule.kind = obs::SloRule::Kind::kRate;
  rule.metric = metric;
  rule.threshold = threshold;
  rule.windows = windows;
  return rule;
}

TEST(WatchdogTest, RateStreakFiresOnceAtKAndRearmsAfterReset) {
  obs::TimeSeries series(1.0);
  obs::Watchdog watchdog(&series, {rate_rule("fail", 3.0, 2)});
  // Windows: 5, 5, 5, 0, 5, 5 — two streaks, each should fire exactly once.
  for (const std::int64_t w : {0, 1, 2, 4, 5}) series.add_at(w, "fail", 5.0);
  series.add_at(3, "other");  // keeps window 3 inside the evaluated range
  watchdog.poll(6.0);

  ASSERT_EQ(watchdog.alerts().size(), 2u);
  EXPECT_EQ(watchdog.alerts()[0].window, 1);  // fired when the streak reached 2
  EXPECT_EQ(watchdog.alerts()[0].consecutive, 2u);
  EXPECT_EQ(watchdog.alerts()[0].value, 5.0);
  EXPECT_EQ(watchdog.alerts()[1].window, 5);  // window 3's clean zero re-armed it
  EXPECT_EQ(watchdog.alert_count("rate-fail"), 2u);
  // The alert is written back into the offending window.
  EXPECT_EQ(series.counter_at("watchdog.alert.rate-fail", 1), 1.0);
  EXPECT_EQ(series.counter_at("watchdog.alert.rate-fail", 5), 1.0);
}

TEST(WatchdogTest, QuantileNoDataWindowResetsTheStreak) {
  obs::SloRule rule;
  rule.name = "p95";
  rule.kind = obs::SloRule::Kind::kQuantile;
  rule.metric = "lat";
  rule.q = 0.95;
  rule.threshold = 1.0;
  rule.windows = 2;
  obs::TimeSeries series(1.0);
  obs::Watchdog watchdog(&series, {rule});
  // Violating samples in windows 0, 2, 3; window 1 has no data at all.
  for (const std::int64_t w : {0, 2, 3}) {
    series.observe(double(w) + 0.5, "lat", 50.0);
    series.observe(double(w) + 0.6, "lat", 50.0);
  }
  watchdog.poll(4.0);
  // Window 1's data gap broke the first streak, so only windows 2+3 fire.
  ASSERT_EQ(watchdog.alerts().size(), 1u);
  EXPECT_EQ(watchdog.alerts()[0].window, 3);
}

TEST(WatchdogTest, RateTreatsEmptyWindowsAsGenuineZeros) {
  // threshold 0 means every window violates — including ones with no
  // samples, because a counter that recorded nothing genuinely read zero.
  obs::TimeSeries series(1.0);
  obs::Watchdog watchdog(&series, {rate_rule("never.touched", 0.0, 3)});
  series.add_at(0, "other");  // the series itself is non-empty
  watchdog.poll(3.0);
  ASSERT_EQ(watchdog.alerts().size(), 1u);
  EXPECT_EQ(watchdog.alerts()[0].window, 2);
  EXPECT_EQ(watchdog.alerts()[0].consecutive, 3u);
}

TEST(WatchdogTest, TotalFiresOnceAtTheFirstCrossingWindow) {
  obs::SloRule rule;
  rule.name = "divergence";
  rule.kind = obs::SloRule::Kind::kTotal;
  rule.metric = "div";
  rule.threshold = 2.0;
  obs::TimeSeries series(1.0);
  obs::Watchdog watchdog(&series, {rule});
  series.add_at(0, "div", 1.0);  // total 1: under
  series.add_at(2, "div", 2.0);  // total 3: crosses here
  series.add_at(4, "div", 5.0);  // total 8: must NOT re-fire
  watchdog.poll(5.0);
  watchdog.finish();
  ASSERT_EQ(watchdog.alerts().size(), 1u);
  EXPECT_EQ(watchdog.alerts()[0].window, 2);
  EXPECT_EQ(watchdog.alerts()[0].value, 3.0);
}

TEST(WatchdogTest, PollStopsAtTheOpenWindowAndFinishDrainsIt) {
  obs::TimeSeries series(1.0);
  obs::Watchdog watchdog(&series, {rate_rule("fail", 1.0, 1)});
  series.add_at(3, "fail", 9.0);
  watchdog.poll(3.5);  // window 3 is still open — must not evaluate yet
  EXPECT_TRUE(watchdog.alerts().empty());
  obs::FlightRecorder flight(8);
  watchdog.finish(&flight);  // drains through last_window() inclusive
  ASSERT_EQ(watchdog.alerts().size(), 1u);
  EXPECT_EQ(watchdog.alerts()[0].window, 3);
  // The flight recorder got the alert, stamped at the window's close.
  const std::vector<obs::FlightEvent> events = flight.dump();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].host, "watchdog");
  EXPECT_EQ(events[0].kind, "alert");
  EXPECT_EQ(events[0].time, 4.0);
}

TEST(WatchdogTest, AlertDetailNamesTheOffendingWindow) {
  obs::TimeSeries series(1.0);
  obs::Watchdog watchdog(&series, {rate_rule("fail", 3.0, 1)});
  series.add_at(7, "fail", 5.0);
  watchdog.finish();
  ASSERT_EQ(watchdog.alerts().size(), 1u);
  EXPECT_EQ(watchdog.alerts()[0].detail(), "rate-fail: fail=5 >= 3 for 1 window, window 7");
}

TEST(WatchdogTest, NullSeriesIsRejected) {
  EXPECT_THROW(obs::Watchdog(nullptr, obs::default_slo_rules()), std::invalid_argument);
}

}  // namespace
}  // namespace edgstr
