#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/text.h"

namespace edgstr::util {
namespace {

// ----------------------------------------------------------------- Text --

TEST(TextTest, HashIsContentHashAndSurvivesInPlaceAppend) {
  TextPtr body = make_text("model-");
  EXPECT_EQ(body->hash(), content_hash("model-"));
  const Text* sole = body.get();
  append_text(&body, "weights");  // sole owner: grows in place, hash extended
  EXPECT_EQ(body.get(), sole);
  EXPECT_EQ(body->str(), "model-weights");
  EXPECT_EQ(body->hash(), content_hash("model-weights"));
  append_text(&body, body->str());  // appending a body to itself
  EXPECT_EQ(body->str(), "model-weightsmodel-weights");
  EXPECT_EQ(body->hash(), content_hash(body->str()));
}

TEST(TextTest, AppendToASharedBodyCopies) {
  TextPtr body = make_text("a");
  const TextPtr reader = body;
  append_text(&body, "b");
  EXPECT_NE(body, reader);
  EXPECT_EQ(reader->str(), "a");
  EXPECT_EQ(body->str(), "ab");
  TextPtr empty;
  append_text(&empty, "new");
  EXPECT_EQ(empty->str(), "new");
}

// Several threads may hash one shared body first at the same time; under
// the thread sanitizer this must stay clean, and all must agree. The length
// leaves a tail, so each finishes from the cached state plus tail bytes.
TEST(TextTest, ConcurrentFirstHashesAgree) {
  const TextPtr body = make_text(std::string((1 << 16) + 5, 'z'));
  std::vector<std::uint64_t> seen(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&body, &seen, t] { seen[t] = body->hash(); });
  }
  for (std::thread& t : threads) t.join();
  for (const std::uint64_t h : seen) EXPECT_EQ(h, content_hash(body->str()));
}

std::string random_bytes(Rng& rng, std::size_t length) {
  std::string s(length, '\0');
  for (char& c : s) c = static_cast<char>(rng.next_u64());
  return s;
}

// Appends `whole` to an empty sole-owned body in chunks of 1-9 bytes (fixed
// `chunk`, or random when 0), hashing after every step when `hash_each`, so
// the cached state is extended rather than computed at the end.
std::uint64_t hash_by_appends(const std::string& whole, std::size_t chunk, bool hash_each,
                              Rng& rng) {
  TextPtr body = make_text("");
  if (hash_each) body->hash();
  for (std::size_t at = 0; at < whole.size();) {
    const std::size_t n = std::min(whole.size() - at, chunk != 0 ? chunk : 1 + rng.next_u64() % 9);
    const Text* sole = body.get();
    append_text(&body, std::string_view(whole).substr(at, n));
    EXPECT_EQ(body.get(), sole);
    at += n;
    if (hash_each && whole.size() <= 64) {
      EXPECT_EQ(body->hash(), content_hash(whole.substr(0, at)));
    }
  }
  return body->hash();
}

TEST(ContentHashTest, InPlaceAppendsStreamToTheWholeBodysHash) {
  Rng rng(27);
  for (std::size_t length = 0; length <= 40; ++length) {
    const std::string whole = random_bytes(rng, length);
    const std::uint64_t expected = content_hash(whole);
    for (std::size_t chunk = 0; chunk <= 9; ++chunk) {
      for (const bool hash_each : {false, true}) {
        EXPECT_EQ(hash_by_appends(whole, chunk, hash_each, rng), expected)
            << "length " << length << " chunk " << chunk;
      }
    }
    TextPtr doubled = make_text(whole);
    doubled->hash();
    append_text(&doubled, doubled->str());  // self-append continues the cache
    EXPECT_EQ(doubled->hash(), content_hash(whole + whole)) << "length " << length;
  }
  const std::string big = random_bytes(rng, std::size_t{1} << 20);
  EXPECT_EQ(hash_by_appends(big, 0, true, rng), content_hash(big));
}

TEST(ContentHashTest, ZeroFilledStringsOfEachLengthDiffer) {
  std::set<std::uint64_t> seen;
  for (std::size_t length = 0; length <= 64; ++length) {
    const std::uint64_t h = content_hash(std::string(length, '\0'));
    EXPECT_NE(h, 0u);
    EXPECT_TRUE(seen.insert(h).second) << "length " << length;
  }
}

TEST(ContentHashTest, EverySingleBitFlipChangesTheHash) {
  Rng rng(5);
  const std::string base = random_bytes(rng, 64);
  std::set<std::uint64_t> seen{content_hash(base)};
  for (std::size_t bit = 0; bit < base.size() * 8; ++bit) {
    std::string flipped = base;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_TRUE(seen.insert(content_hash(flipped)).second) << "bit " << bit;
  }
}

// 1M seeded strings of length 0-32: equal hashes only for equal strings.
TEST(ContentHashTest, NoCollisionsAmongAMillionShortStrings) {
  constexpr std::uint64_t kCount = 1'000'000;
  const auto nth = [](std::uint64_t i) {
    Rng rng(i);
    return random_bytes(rng, rng.next_u64() % 33);
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hashes;
  hashes.reserve(kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) hashes.emplace_back(content_hash(nth(i)), i);
  std::sort(hashes.begin(), hashes.end());
  std::size_t collisions = 0;
  for (std::size_t i = 1; i < hashes.size(); ++i) {
    const bool same_hash = hashes[i].first == hashes[i - 1].first;
    if (same_hash && nth(hashes[i].second) != nth(hashes[i - 1].second)) ++collisions;
  }
  EXPECT_EQ(collisions, 0u);
}

// Loads are unaligned-safe: a view at any offset hashes like a copy of it.
TEST(ContentHashTest, ViewsAtAnyOffsetHashLikeTheirCopies) {
  Rng rng(11);
  const std::string buffer = random_bytes(rng, 128);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length + offset <= buffer.size(); length += 3) {
      const std::string_view view = std::string_view(buffer).substr(offset, length);
      const std::string copy(view);
      EXPECT_EQ(content_hash(view), content_hash(copy)) << offset << "+" << length;
      EXPECT_EQ(content_hash(view), make_text(copy)->hash()) << offset << "+" << length;
    }
  }
}

// ------------------------------------------------------------------ Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformIntThrowsOnInvertedBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 2), std::invalid_argument);
}

TEST(RngTest, NormalHasRoughlyRightMoments) {
  Rng rng(42);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(RngTest, ExponentialRejectsNonPositiveRate) {
  Rng rng(5);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.split();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(RngTest, TokenHasRequestedLength) {
  Rng rng(3);
  EXPECT_EQ(rng.token(12).size(), 12u);
  EXPECT_EQ(rng.token(0).size(), 0u);
}

TEST(RngTest, IndexThrowsOnEmptyRange) {
  Rng rng(3);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(21);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- stats --

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(SummaryTest, QuantileInterpolates) {
  Summary s;
  for (double v : {0.0, 10.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 7.5);
}

TEST(SummaryTest, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.quantile(0.5), std::logic_error);
}

TEST(SummaryTest, QuantileRejectsOutOfRange) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.quantile(1.1), std::invalid_argument);
}

TEST(SummaryTest, MergeCombinesSamples) {
  Summary a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(StatsTest, BoxStatsOrdering) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  const BoxStats box = box_stats(s);
  EXPECT_LT(box.min, box.q1);
  EXPECT_LT(box.q1, box.median);
  EXPECT_LT(box.median, box.q3);
  EXPECT_LT(box.q3, box.max);
}

TEST(StatsTest, LinearRegressionExactLine) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {3, 5, 7, 9};  // y = 2x + 1
  const LinearFit fit = linear_regression(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(StatsTest, LinearRegressionNeedsTwoPoints) {
  EXPECT_THROW(linear_regression({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(linear_regression({1.0, 2.0}, {2.0}), std::invalid_argument);
}

TEST(StatsTest, LinearRegressionDegenerateXs) {
  const LinearFit fit = linear_regression({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

// -------------------------------------------------------------- strings --

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(StringsTest, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, ReplaceAllOccurrences) {
  EXPECT_EQ(replace_all("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");
}

TEST(StringsTest, Fnv1aStableAndDiscriminating) {
  EXPECT_EQ(fnv1a("hello"), fnv1a("hello"));
  EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(StringsTest, FormatBytesUnits) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_bytes(3 * 1024.0 * 1024.0), "3.00 MB");
}

TEST(StringsTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
}

TEST(StringsTest, ParseU64AcceptsBareDigits) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("4", &v));
  EXPECT_EQ(v, 4u);
  EXPECT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));  // 2^64 - 1
  EXPECT_EQ(v, UINT64_MAX);
}

// strtoul turns "-1" into SIZE_MAX and "abc" into 0; these must be errors,
// and a failed parse must not touch the output.
TEST(StringsTest, ParseU64RejectsSignsSpacesJunkAndOverflow) {
  for (const char* bad : {"-1", " 4", "4 ", "4x", "", "+4", "abc", "18446744073709551616"}) {
    std::uint64_t v = 7;
    EXPECT_FALSE(parse_u64(bad, &v)) << '"' << bad << '"';
    EXPECT_EQ(v, 7u) << '"' << bad << '"';
  }
}

// -------------------------------------------------------------- logging --

TEST(LoggingTest, SinkReceivesMessagesAboveThreshold) {
  std::vector<std::string> captured;
  set_log_sink([&](const LogRecord& rec) {
    captured.push_back(std::string(to_string(rec.level)) + ":" + std::string(rec.message));
  });
  set_log_level(LogLevel::kInfo);
  EDGSTR_DEBUG() << "hidden";
  EDGSTR_INFO() << "shown " << 42;
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "INFO:shown 42");
}

TEST(LoggingTest, StructuredRecordCarriesLevelAndMessage) {
  // rec.message is only valid during the sink call — copy into owned strings.
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](const LogRecord& rec) {
    captured.emplace_back(rec.level, std::string(rec.message));
  });
  set_log_level(LogLevel::kTrace);
  EDGSTR_WARN() << "disk " << 93 << "% full";
  EDGSTR_ERROR() << "sync failed";
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kWarn);
  EXPECT_EQ(captured[0].second, "disk 93% full");
  EXPECT_EQ(captured[1].first, LogLevel::kError);
  EXPECT_EQ(captured[1].second, "sync failed");
}

TEST(LoggingTest, ReentrantSinkDoesNotDeadlockOrRecurse) {
  // A sink that itself logs must neither self-deadlock on the logging
  // mutex nor recurse: the nested emission is dropped.
  int calls = 0;
  set_log_sink([&](const LogRecord&) {
    ++calls;
    EDGSTR_ERROR() << "from inside the sink";
  });
  set_log_level(LogLevel::kInfo);
  EDGSTR_INFO() << "trigger";
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(calls, 1);
}

TEST(LoggingTest, ConcurrentLoggingIsSafe) {
  std::mutex mu;  // sinks may run concurrently; this one synchronizes itself
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](const LogRecord& rec) {
    std::lock_guard lock(mu);
    captured.emplace_back(rec.level, std::string(rec.message));
  });
  set_log_level(LogLevel::kInfo);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) EDGSTR_INFO() << "t" << t << " msg " << i;
    });
  }
  for (std::thread& t : threads) t.join();
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  // Every record arrives exactly once, unsheared.
  ASSERT_EQ(captured.size(), 200u);
  for (const auto& [level, message] : captured) {
    EXPECT_EQ(level, LogLevel::kInfo);
    EXPECT_NE(message.find(" msg "), std::string::npos);
  }
}

TEST(LoggingTest, ParseLogLevelNames) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(parse_log_level("trace", &level));
  EXPECT_EQ(level, LogLevel::kTrace);
  EXPECT_TRUE(parse_log_level("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(parse_log_level("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(parse_log_level("loud", &level));
  EXPECT_EQ(level, LogLevel::kError);  // unchanged on failure
}

// -------------------------------------------------------------- metrics --

TEST(MetricsTest, CountersAddAndSet) {
  MetricsRegistry reg;
  reg.add("a.count");
  reg.add("a.count", 2.0);
  reg.set("a.gauge", 7.5);
  EXPECT_DOUBLE_EQ(reg.value("a.count"), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("a.gauge"), 7.5);
  EXPECT_DOUBLE_EQ(reg.value("missing"), 0.0);
}

TEST(MetricsTest, SnapshotAndSumRespectOverlappingPrefixes) {
  MetricsRegistry reg;
  reg.set("sync.bytes.wire", 100);
  reg.set("sync.bytes.doc.tables", 400);
  reg.set("sync.rounds", 3);
  reg.set("runtime.request.count.local", 5);

  // The longer prefix selects a strict subset of the shorter one.
  const auto bytes = reg.snapshot("sync.bytes.");
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.sum("sync.bytes."), 500.0);

  const auto all_sync = reg.snapshot("sync.");
  EXPECT_EQ(all_sync.size(), 3u);
  EXPECT_DOUBLE_EQ(reg.sum("sync."), 503.0);

  // Empty prefix means everything.
  EXPECT_EQ(reg.snapshot("").size(), 4u);
  EXPECT_DOUBLE_EQ(reg.sum(""), 508.0);

  // Prefix matching is literal, not segment-aware: "sync.round" also
  // matches "sync.rounds".
  EXPECT_DOUBLE_EQ(reg.sum("sync.round"), 3.0);
}

TEST(MetricsTest, ResetDropsOnlyMatchingPrefix) {
  MetricsRegistry reg;
  reg.set("sync.bytes.wire", 100);
  reg.set("sync.rounds", 3);
  reg.set("runtime.request.count.local", 5);
  reg.observe("sync.round.duration", 0.5);
  reg.observe("runtime.request.latency.local", 0.01);

  reg.reset("sync.");
  EXPECT_DOUBLE_EQ(reg.value("sync.bytes.wire"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("sync.rounds"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("runtime.request.count.local"), 5.0);
  EXPECT_EQ(reg.histogram("sync.round.duration"), nullptr);
  ASSERT_NE(reg.histogram("runtime.request.latency.local"), nullptr);
  EXPECT_EQ(reg.histogram("runtime.request.latency.local")->count(), 1u);

  reg.reset();  // full wipe
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.histogram_count(), 0u);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h(Histogram::default_latency_bounds());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, ExactMinMaxAndMean) {
  Histogram h(Histogram::default_count_bounds());
  for (double v : {1.0, 5.0, 9.0}) h.observe(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(HistogramTest, QuantilesOfUniformDistribution) {
  // 1..1000 uniformly: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990. The fixed 1-2-5
  // bucket ladder limits resolution to the enclosing bucket, so allow the
  // bucket width as tolerance.
  Histogram h(Histogram::default_count_bounds());
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.quantile(0.50), 500.0, 300.0);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 500.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 500.0);
  // Quantiles are monotone and clamped to the observed range.
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 1000.0);
}

TEST(HistogramTest, QuantileOfSingleBucketIsExactValue) {
  Histogram h(Histogram::default_latency_bounds());
  for (int i = 0; i < 10; ++i) h.observe(0.003);
  // All samples identical: min/max clamp every quantile to the value.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.003);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.003);
}

TEST(HistogramTest, OverflowBucketCatchesOutOfRange) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(100.0);  // beyond the last bound → overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
}

TEST(HistogramTest, MergeCombinesCountsAndRange) {
  Histogram a(Histogram::default_count_bounds());
  Histogram b(Histogram::default_count_bounds());
  a.observe(10.0);
  b.observe(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 10.0);
  EXPECT_DOUBLE_EQ(a.max(), 1000.0);
}

TEST(HistogramTest, BoundsAreInclusiveUpperBounds) {
  // Pins the bucket-assignment convention the exporters and the SLO
  // watchdog's quantile rules depend on: a bound is an *inclusive* upper
  // bound, so a value exactly on a bound lands in that bound's bucket and
  // anything above it spills into the next.
  Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);        // == bound 1.0 → bucket 0
  h.observe(1.0000001);  // just above → bucket 1
  h.observe(2.0);        // == bound 2.0 → bucket 1
  h.observe(5.0);        // == last bound → bucket 2, not overflow
  h.observe(5.1);        // above the last bound → overflow
  const std::vector<std::uint64_t>& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(HistogramTest, QuantileInterpolatesWithinObservedRange) {
  // All four samples share one bucket; interpolation runs between the
  // observed min and max (2 and 8), not the nominal bucket edges (0, 10).
  Histogram h({10.0});
  for (double v : {2.0, 4.0, 6.0, 8.0}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);   // clamps to observed min
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);   // midpoint of [2, 8]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);   // clamps to observed max
}

TEST(HistogramTest, OverflowBucketQuantileUsesObservedMax) {
  // Overflow samples have no nominal upper edge; the observed max caps the
  // interpolation instead of returning an unbounded estimate.
  Histogram h({1.0});
  h.observe(100.0);
  h.observe(200.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 150.0);  // midpoint of [100, 200]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);
}

TEST(MetricsTest, RegistryObserveAndQuantile) {
  MetricsRegistry reg;
  for (int i = 0; i < 100; ++i) reg.observe("req.latency", 0.001 * (i + 1));
  ASSERT_NE(reg.histogram("req.latency"), nullptr);
  EXPECT_EQ(reg.histogram("req.latency")->count(), 100u);
  const double p50 = reg.quantile("req.latency", 0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 0.1);
  EXPECT_DOUBLE_EQ(reg.quantile("missing", 0.5), 0.0);
}

TEST(MetricsTest, HistogramsByPrefix) {
  MetricsRegistry reg;
  reg.observe("runtime.request.latency.local", 0.01);
  reg.observe("runtime.request.latency.forward", 0.05);
  reg.observe("sync.round.duration", 0.2);
  EXPECT_EQ(reg.histograms("runtime.request.latency.").size(), 2u);
  EXPECT_EQ(reg.histograms("sync.").size(), 1u);
  EXPECT_EQ(reg.histograms("").size(), 3u);
}

TEST(MetricsTest, FormatListsCountersAndHistograms) {
  MetricsRegistry reg;
  reg.set("sync.rounds", 2);
  reg.observe("sync.round.duration", 0.25);
  const std::string text = reg.format();
  EXPECT_NE(text.find("sync.rounds"), std::string::npos);
  EXPECT_NE(text.find("sync.round.duration"), std::string::npos);
}

}  // namespace
}  // namespace edgstr::util
