#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "apps/app.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "json/parse.h"
#include "netsim/clock.h"
#include "obs/export.h"
#include "obs/telemetry.h"

namespace edgstr::obs {
namespace {

// --------------------------------------------------------------- Tracer --

TEST(TracerTest, SpanWithoutParentRootsNewTrace) {
  Tracer tracer;
  const SpanId a = tracer.begin_span("req", "request", "client");
  const SpanId b = tracer.begin_span("req", "request", "client");
  ASSERT_NE(a, kNoSpan);
  ASSERT_NE(b, kNoSpan);
  EXPECT_NE(tracer.span(a).trace_id, tracer.span(b).trace_id);
  EXPECT_EQ(tracer.span(a).parent_id, 0u);
  EXPECT_EQ(tracer.span(b).parent_id, 0u);
}

TEST(TracerTest, ChildJoinsParentTrace) {
  Tracer tracer;
  const SpanId root = tracer.begin_span("request", "request", "client");
  const SpanId child = tracer.begin_span("proxy.serve", "request", "edge0",
                                         tracer.context(root));
  EXPECT_EQ(tracer.span(child).trace_id, tracer.span(root).trace_id);
  EXPECT_EQ(tracer.span(child).parent_id, tracer.span(root).id);
}

TEST(TracerTest, EndSpanUsesMaxSemantics) {
  netsim::SimClock clock;
  Tracer tracer(&clock);
  const SpanId span = tracer.begin_span("work", "sync", "cloud");
  EXPECT_DOUBLE_EQ(tracer.span(span).duration(), 0.0);

  clock.schedule(2.0, [] {});
  clock.run();
  tracer.end_span(span);
  EXPECT_DOUBLE_EQ(tracer.span(span).duration(), 2.0);

  // A later straggler extends the span; re-ending at the same time is a
  // no-op — the end only ever moves forward.
  clock.schedule(3.0, [] {});
  clock.run();
  tracer.end_span(span);
  EXPECT_DOUBLE_EQ(tracer.span(span).duration(), 5.0);
  tracer.end_span(span);
  EXPECT_DOUBLE_EQ(tracer.span(span).duration(), 5.0);
}

TEST(TracerTest, LinkDedupsAndIgnoresZero) {
  Tracer tracer;
  const SpanId span = tracer.begin_span("sync.send", "sync", "edge0");
  tracer.link(span, 7);
  tracer.link(span, 7);   // duplicate dropped
  tracer.link(span, 0);   // "no trace" sentinel ignored
  tracer.link(span, 9);
  ASSERT_EQ(tracer.span(span).links.size(), 2u);
  EXPECT_EQ(tracer.span(span).links[0], 7u);
  EXPECT_EQ(tracer.span(span).links[1], 9u);
}

TEST(TracerTest, IdenticalOperationsYieldIdenticalSpans) {
  auto record = [](Tracer& tracer) {
    const SpanId root = tracer.begin_span("request", "request", "client");
    const SpanId child =
        tracer.begin_span("proxy.serve", "request", "edge0", tracer.context(root));
    tracer.add_arg(child, "route", "POST /note");
    tracer.link(child, 42);
    tracer.end_span(child);
    tracer.end_span(root);
  };
  Tracer a, b;
  record(a);
  record(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 1; i <= a.size(); ++i) {
    EXPECT_EQ(a.span(i).trace_id, b.span(i).trace_id);
    EXPECT_EQ(a.span(i).id, b.span(i).id);
    EXPECT_EQ(a.span(i).parent_id, b.span(i).parent_id);
    EXPECT_EQ(a.span(i).name, b.span(i).name);
    EXPECT_EQ(a.span(i).host, b.span(i).host);
    EXPECT_EQ(a.span(i).args, b.span(i).args);
    EXPECT_EQ(a.span(i).links, b.span(i).links);
  }
}

TEST(TracerTest, ClearResetsSpansAndTraceIds) {
  Tracer tracer;
  const std::uint64_t first = tracer.span(tracer.begin_span("a", "x", "h")).trace_id;
  tracer.clear();
  EXPECT_TRUE(tracer.empty());
  EXPECT_EQ(tracer.span(tracer.begin_span("a", "x", "h")).trace_id, first);
}

// ------------------------------------------------------------ Telemetry --

TEST(TelemetryTest, TagOpRequiresActiveContext) {
  Telemetry telemetry;
  telemetry.tag_op("files", "edge0", 1);  // no active context: dropped
  EXPECT_EQ(telemetry.op_trace("files", "edge0", 1), 0u);

  telemetry.set_active_context(TraceContext{5, 2});
  telemetry.tag_op("files", "edge0", 2);
  telemetry.clear_active_context();
  telemetry.tag_op("files", "edge0", 3);  // context cleared again: dropped

  EXPECT_EQ(telemetry.op_trace("files", "edge0", 2), 5u);
  EXPECT_EQ(telemetry.op_trace("files", "edge0", 3), 0u);
  // Identity is (doc, origin, seq) — other coordinates stay untagged.
  EXPECT_EQ(telemetry.op_trace("globals", "edge0", 2), 0u);
  EXPECT_EQ(telemetry.op_trace("files", "edge1", 2), 0u);
}

TEST(TelemetryTest, DeliveryAccounting) {
  Telemetry telemetry;
  EXPECT_FALSE(telemetry.delivered(3, "cloud"));
  telemetry.note_delivery("cloud", 3);
  telemetry.note_delivery("edge1", 3);
  telemetry.note_delivery("cloud", 3);  // duplicate is fine
  EXPECT_TRUE(telemetry.delivered(3, "cloud"));
  EXPECT_TRUE(telemetry.delivered(3, "edge1"));
  EXPECT_FALSE(telemetry.delivered(3, "edge2"));
  EXPECT_EQ(telemetry.delivered_hosts(3).size(), 2u);
  EXPECT_TRUE(telemetry.delivered_hosts(99).empty());
}

// ------------------------------------------------------------ Exporters --

TEST(ExportTest, ChromeTraceStructure) {
  netsim::SimClock clock;
  Tracer tracer(&clock);
  const SpanId root = tracer.begin_span("request", "request", "client");
  const SpanId serve =
      tracer.begin_span("proxy.serve", "request", "edge0", tracer.context(root));
  clock.schedule(0.5, [] {});
  clock.run();
  tracer.end_span(serve);
  tracer.end_span(root);
  const SpanId apply = tracer.begin_span("sync.apply", "sync", "cloud");
  tracer.link(apply, tracer.span(root).trace_id);
  tracer.end_span(apply);

  // Re-parse the serialized export: it must survive a JSON round trip.
  const json::Value doc = json::parse(chrome_trace_json(tracer).dump_pretty());
  ASSERT_TRUE(doc.is_object());
  const json::Array& events = doc["traceEvents"].as_array();

  int meta = 0, complete = 0, flow_start = 0, flow_finish = 0;
  for (const json::Value& event : events) {
    const std::string& ph = event["ph"].as_string();
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(event["name"].as_string(), "process_name");
    } else if (ph == "X") {
      ++complete;
      EXPECT_GE(event["dur"].as_number(), 0.0);
    } else if (ph == "s") {
      ++flow_start;
    } else if (ph == "f") {
      ++flow_finish;
    }
  }
  EXPECT_EQ(meta, 3);      // client, edge0, cloud
  EXPECT_EQ(complete, 3);  // three spans
  EXPECT_EQ(flow_start, 1);
  EXPECT_EQ(flow_finish, 1);

  // The serve span is 0.5 simulated seconds = 500000 trace microseconds.
  bool found_serve = false;
  for (const json::Value& event : events) {
    if (event["ph"].as_string() == "X" && event["name"].as_string() == "proxy.serve") {
      found_serve = true;
      EXPECT_DOUBLE_EQ(event["dur"].as_number(), 500000.0);
    }
  }
  EXPECT_TRUE(found_serve);
}

TEST(ExportTest, MetricsJsonMergesRegistriesLaterWins) {
  util::MetricsRegistry first, second;
  first.set("runtime.request.count.local", 4);
  first.set("shared.gauge", 1);
  first.observe("runtime.request.latency.local", 0.01);
  second.set("sync.rounds", 2);
  second.set("shared.gauge", 9);

  const json::Value doc = json::parse(metrics_json({&first, &second}).dump());
  const json::Object& counters = doc["counters"].as_object();
  EXPECT_DOUBLE_EQ(counters.at("runtime.request.count.local").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(counters.at("sync.rounds").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(counters.at("shared.gauge").as_number(), 9.0);

  const json::Object& histograms = doc["histograms"].as_object();
  ASSERT_TRUE(histograms.contains("runtime.request.latency.local"));
  const json::Value& h = histograms.at("runtime.request.latency.local");
  EXPECT_DOUBLE_EQ(h["count"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h["min"].as_number(), 0.01);
  EXPECT_DOUBLE_EQ(h["max"].as_number(), 0.01);
  EXPECT_TRUE(h["buckets"].is_array());
}

TEST(ExportTest, MetricsJsonMergesCollidingHistogramsBucketWise) {
  // Two registries observing the same histogram name used to export only
  // the later registry's samples; matching layouts now merge bucket-wise.
  util::MetricsRegistry first, second;
  first.observe("runtime.request.latency.local", 0.010);
  first.observe("runtime.request.latency.local", 0.020);
  second.observe("runtime.request.latency.local", 0.500);

  const json::Value doc = json::parse(metrics_json({&first, &second}).dump());
  const json::Value& merged = doc["histograms"].as_object().at("runtime.request.latency.local");
  EXPECT_DOUBLE_EQ(merged["count"].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(merged["min"].as_number(), 0.010);
  EXPECT_DOUBLE_EQ(merged["max"].as_number(), 0.500);
  EXPECT_DOUBLE_EQ(merged["sum"].as_number(), 0.530);

  // Mismatched bucket layouts cannot merge — later wins, as for counters.
  util::MetricsRegistry custom;
  custom.observe("runtime.request.latency.local", 5.0, {1.0, 10.0});
  const json::Value doc2 = json::parse(metrics_json({&first, &custom}).dump());
  const json::Value& replaced =
      doc2["histograms"].as_object().at("runtime.request.latency.local");
  EXPECT_DOUBLE_EQ(replaced["count"].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(replaced["max"].as_number(), 5.0);
  ASSERT_EQ(replaced["buckets"].as_array().size(), 1u);  // sparse: one touched bucket
  EXPECT_DOUBLE_EQ(replaced["buckets"].as_array()[0][0].as_number(), 10.0);
}

TEST(ExportTest, ChromeTraceAppendsCounterTracksWhenTimeSeriesGiven) {
  netsim::SimClock clock;
  Tracer tracer(&clock);
  const SpanId span = tracer.begin_span("request", "request", "edge0");
  tracer.end_span(span);

  const std::string bare = chrome_trace_json(tracer).dump_pretty();
  // Null and empty series leave the export byte-identical.
  const TimeSeries empty_series(1.0);
  EXPECT_EQ(chrome_trace_json(tracer, nullptr).dump_pretty(), bare);
  EXPECT_EQ(chrome_trace_json(tracer, &empty_series).dump_pretty(), bare);

  TimeSeries series(1.0);
  series.add(0.5, "req.local", 2.0);
  series.add(1.5, "req.local", 3.0);
  series.set(0.5, "queue.depth", 7.0);
  const json::Value doc = json::parse(chrome_trace_json(tracer, &series).dump_pretty());

  int counter_events = 0;
  bool named_timeseries_process = false;
  double req_window1 = -1;
  for (const json::Value& event : doc["traceEvents"].as_array()) {
    const std::string& ph = event["ph"].as_string();
    if (ph == "M" && event["args"]["name"].as_string() == "timeseries") {
      named_timeseries_process = true;
    }
    if (ph != "C") continue;
    ++counter_events;
    if (event["name"].as_string() == "req.local" && event["ts"].as_number() == 1000000.0) {
      req_window1 = event["args"]["value"].as_number();
    }
  }
  EXPECT_TRUE(named_timeseries_process);
  EXPECT_EQ(counter_events, 3);  // two req.local windows + one gauge window
  EXPECT_DOUBLE_EQ(req_window1, 3.0);
}

TEST(ExportTest, TimeSeriesJsonSchemaAndByteIdentity) {
  auto build = [] {
    TimeSeries series(0.5);
    series.add(0.1, "req.local");
    series.add(0.6, "req.local", 2.0);
    series.set(0.1, "queue.depth", 4.0);
    series.observe(0.1, "staleness.seconds", 12.0);
    series.observe(0.7, "staleness.seconds", 30.0);
    return series;
  };
  const TimeSeries series = build();
  const std::string dump = timeseries_json(series).dump_pretty();
  EXPECT_EQ(timeseries_json(build()).dump_pretty(), dump);  // byte-identical

  const json::Value doc = json::parse(dump);
  EXPECT_DOUBLE_EQ(doc["window_s"].as_number(), 0.5);
  const json::Array& req = doc["counters"].as_object().at("req.local").as_array();
  ASSERT_EQ(req.size(), 2u);  // sparse: only touched windows appear
  EXPECT_DOUBLE_EQ(req[0][0].as_number(), 0.0);
  EXPECT_DOUBLE_EQ(req[0][1].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(req[1][0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(req[1][1].as_number(), 2.0);
  EXPECT_TRUE(doc["gauges"].as_object().contains("queue.depth"));
  const json::Array& hist =
      doc["histograms"].as_object().at("staleness.seconds").as_array();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_DOUBLE_EQ(hist[0][1]["count"].as_number(), 1.0);
  EXPECT_TRUE(hist[0][1]["buckets"].is_array());
}

TEST(ExportTest, WriteTextFileRoundTrip) {
  const std::string path = "obs_test_export.tmp";
  ASSERT_TRUE(write_text_file(path, "hello trace\n"));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "hello trace\n");
  in.close();
  std::remove(path.c_str());
  EXPECT_FALSE(write_text_file("no_such_dir/obs_test_export.tmp", "x"));
}

// ---------------------------------------------------- end-to-end tracing --

const core::TransformResult& transform_notes() {
  static const core::TransformResult result = [] {
    const apps::SubjectApp& app = apps::text_notes();
    const http::TrafficRecorder traffic =
        core::record_traffic(app.server_source, app.workload);
    return core::Pipeline().transform(app.name, app.server_source, traffic);
  }();
  return result;
}

http::HttpRequest note_request(const std::string& text) {
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/note";
  req.params = json::Value::object({{"text", json::Value(text)}});
  return req;
}

/// One edge write, synced to convergence; returns the write's trace id.
std::uint64_t write_and_sync(core::ThreeTierDeployment& three, std::uint64_t* root_span_out) {
  const http::HttpResponse resp = three.request_sync(note_request("traced"), 0);
  EXPECT_TRUE(resp.ok());

  const Tracer& tracer = three.telemetry().tracer();
  std::uint64_t trace = 0, root_span = 0;
  for (const Span& span : tracer.spans()) {
    if (span.name == "request" && span.parent_id == 0) {
      trace = span.trace_id;
      root_span = span.id;
    }
  }
  if (root_span_out) *root_span_out = root_span;

  for (int round = 0; round < 20 && !three.replication().converged(); ++round) {
    three.sync().tick();
    three.network().clock().run();
  }
  EXPECT_TRUE(three.replication().converged());
  return trace;
}

TEST(ObsIntegrationTest, EdgeWriteSpanTreeReachesCloud) {
  core::DeploymentConfig config;
  config.start_sync = false;
  core::ThreeTierDeployment three(transform_notes(), config);

  std::uint64_t root_span = 0;
  const std::uint64_t trace = write_and_sync(three, &root_span);
  ASSERT_NE(trace, 0u);

  const Tracer& tracer = three.telemetry().tracer();

  // The serve span is a child of the request's root span, on the edge.
  bool found_serve = false;
  for (const Span& span : tracer.spans()) {
    if (span.name == "proxy.serve" && span.trace_id == trace) {
      found_serve = true;
      EXPECT_EQ(span.parent_id, root_span);
      EXPECT_EQ(span.host, "edge0");
    }
  }
  EXPECT_TRUE(found_serve);

  // The sync plane carried the write's ops to the cloud: the delivery
  // table has it, and at least one sync span carries the causal link.
  EXPECT_TRUE(three.telemetry().delivered(trace, "cloud"));
  bool linked_send = false, linked_apply = false;
  for (const Span& span : tracer.spans()) {
    const bool links_trace =
        std::find(span.links.begin(), span.links.end(), trace) != span.links.end();
    if (!links_trace) continue;
    if (span.name == "sync.send") linked_send = true;
    if (span.name == "sync.apply" && span.host == "cloud") linked_apply = true;
  }
  EXPECT_TRUE(linked_send);
  EXPECT_TRUE(linked_apply);
}

TEST(ObsIntegrationTest, RequestLatencyAndStalenessMetricsRecorded) {
  core::DeploymentConfig config;
  config.start_sync = false;
  core::ThreeTierDeployment three(transform_notes(), config);
  write_and_sync(three, nullptr);
  // A round's duration is finalized (stretched over its in-flight
  // deliveries) and observed at the start of the next round — run one more
  // tick to flush the previous round into the histogram.
  three.sync().tick();
  three.network().clock().run();

  // Request path: the local-serve latency histogram saw the write.
  const util::MetricsRegistry& runtime_metrics = three.telemetry().metrics();
  ASSERT_NE(runtime_metrics.histogram("runtime.request.latency.local"), nullptr);
  EXPECT_GE(runtime_metrics.histogram("runtime.request.latency.local")->count(), 1u);
  EXPECT_GE(runtime_metrics.value("runtime.request.count.local"), 1.0);

  // Sync plane: round histograms plus per-endpoint staleness gauges.
  const util::MetricsRegistry& sync_metrics = three.sync().metrics();
  ASSERT_NE(sync_metrics.histogram("sync.round.duration"), nullptr);
  EXPECT_GE(sync_metrics.histogram("sync.round.duration")->count(), 1u);
  EXPECT_FALSE(sync_metrics.snapshot("sync.staleness.ops.edge0").empty());
  EXPECT_FALSE(sync_metrics.snapshot("sync.staleness.seconds.edge0").empty());
  // After convergence the edge lags the cloud by nothing.
  EXPECT_DOUBLE_EQ(sync_metrics.value("sync.staleness.ops.edge0"), 0.0);

  // The merged snapshot exposes both planes plus request quantiles.
  const json::Value doc = json::parse(three.metrics_snapshot().dump());
  EXPECT_TRUE(doc["counters"].as_object().contains("runtime.request.count.local"));
  const json::Object& histograms = doc["histograms"].as_object();
  ASSERT_TRUE(histograms.contains("runtime.request.latency.local"));
  const json::Value& latency = histograms.at("runtime.request.latency.local");
  EXPECT_GT(latency["p50"].as_number(), 0.0);
  EXPECT_GE(latency["p99"].as_number(), latency["p50"].as_number());
}

TEST(ObsIntegrationTest, SameSeedRunsProduceIdenticalTraceExport) {
  auto run = [] {
    core::DeploymentConfig config;
    config.start_sync = false;
    config.seed = 77;
    core::ThreeTierDeployment three(transform_notes(), config);
    write_and_sync(three, nullptr);
    return std::pair<std::string, std::string>(three.chrome_trace().dump_pretty(),
                                               three.metrics_snapshot().dump_pretty());
  };
  const auto [trace_a, metrics_a] = run();
  const auto [trace_b, metrics_b] = run();
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
}

}  // namespace
}  // namespace edgstr::obs
