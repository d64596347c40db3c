// Behavioral tests for the seven subject applications: every service
// answers its workload request with the expected fields and state effects.
// These double as the "original regression tests that come with the apps"
// the paper replays for RQ1.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/app.h"
#include "trace/state_capture.h"

namespace edgstr::apps {
namespace {

/// Runs one request against a fresh instance of the app.
http::HttpResponse run_one(const SubjectApp& app, const http::HttpRequest& req) {
  trace::ProfilingHarness harness(app.server_source);
  return harness.invoke(http::Route{req.verb, req.path}, req);
}

/// Runs the full workload in order against one live instance.
std::vector<http::HttpResponse> run_workload(const SubjectApp& app) {
  trace::ProfilingHarness harness(app.server_source);
  std::vector<http::HttpResponse> out;
  for (const http::HttpRequest& req : app.workload) {
    out.push_back(harness.invoke(http::Route{req.verb, req.path}, req));
  }
  return out;
}

TEST(AppInventoryTest, SevenAppsFortyTwoServices) {
  EXPECT_EQ(all_subject_apps().size(), 7u);
  EXPECT_EQ(total_service_count(), 42u);
}

TEST(AppInventoryTest, EveryWorkloadRequestSucceeds) {
  for (const SubjectApp* app : all_subject_apps()) {
    const auto responses = run_workload(*app);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_TRUE(responses[i].ok())
          << app->name << " request #" << i << " (" << app->workload[i].path
          << ") -> " << responses[i].status << " " << responses[i].body.dump();
    }
  }
}

TEST(AppInventoryTest, ServerSourcesRegisterExactlyTheDocumentedServices) {
  for (const SubjectApp* app : all_subject_apps()) {
    trace::ProfilingHarness harness(app->server_source);
    EXPECT_EQ(harness.interpreter().routes().size(), app->services.size()) << app->name;
    for (const http::Route& svc : app->services) {
      EXPECT_TRUE(harness.interpreter().has_route(svc))
          << app->name << " missing " << svc.to_string();
    }
  }
}

TEST(FobojetTest, PredictIsDeterministicPerImage) {
  const SubjectApp& app = fobojet();
  const http::HttpRequest req = app.workload.front();
  const http::HttpResponse a = run_one(app, req);
  const http::HttpResponse b = run_one(app, req);
  EXPECT_EQ(a.body["detection"]["label"], b.body["detection"]["label"]);
  EXPECT_GE(a.body["detection"]["score"].as_number(), 0.0);
  EXPECT_LE(a.body["detection"]["score"].as_number(), 1.01);
  EXPECT_EQ(a.body["detection"]["box"].as_array().size(), 4u);
}

TEST(FobojetTest, DifferentImagesCanDiffer) {
  const SubjectApp& app = fobojet();
  http::HttpRequest r1 = app.workload[0];
  http::HttpRequest r2 = app.workload[1];  // different payload size
  const http::HttpResponse a = run_one(app, r1);
  const http::HttpResponse b = run_one(app, r2);
  EXPECT_FALSE(a.body["detection"] == b.body["detection"]);
}

TEST(FobojetTest, HistoryReflectsDetections) {
  const SubjectApp& app = fobojet();
  trace::ProfilingHarness harness(app.server_source);
  for (int i = 0; i < 3; ++i) {
    harness.invoke({http::Verb::kPost, "/predict"}, app.workload[i]);
  }
  http::HttpRequest hist;
  hist.verb = http::Verb::kGet;
  hist.path = "/history";
  hist.params = json::Value::object({{"limit", 2}});
  const http::HttpResponse resp = harness.invoke({http::Verb::kGet, "/history"}, hist);
  EXPECT_EQ(resp.body["history"].as_array().size(), 2u);
  // Newest first (ORDER BY ts DESC).
  EXPECT_DOUBLE_EQ(resp.body["history"][std::size_t{0}]["ts"].as_number(), 3.0);
}

TEST(MnistTest, BatchPredictCountsMatch) {
  const SubjectApp& app = mnist_rest();
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/batch-predict";
  req.params = json::Value::object({{"count", 5}});
  req.payload_bytes = 5 * app.typical_payload_bytes;
  const http::HttpResponse resp = run_one(app, req);
  EXPECT_EQ(resp.body["digits"].as_array().size(), 5u);
  for (const json::Value& d : resp.body["digits"].as_array()) {
    EXPECT_GE(d.as_number(), 0);
    EXPECT_LE(d.as_number(), 9);
  }
}

TEST(BookwormTest, ReviewsAggregateAverage) {
  const SubjectApp& app = bookworm();
  trace::ProfilingHarness harness(app.server_source);
  auto review = [&](int stars) {
    http::HttpRequest req;
    req.verb = http::Verb::kPost;
    req.path = "/review";
    req.params = json::Value::object({{"book", 1}, {"stars", stars}, {"text", "t"}});
    harness.invoke({http::Verb::kPost, "/review"}, req);
  };
  review(2);
  review(4);
  http::HttpRequest get;
  get.verb = http::Verb::kGet;
  get.path = "/reviews";
  get.params = json::Value::object({{"book", 1}});
  const http::HttpResponse resp = harness.invoke({http::Verb::kGet, "/reviews"}, get);
  EXPECT_DOUBLE_EQ(resp.body["average"].as_number(), 3.0);
  EXPECT_EQ(resp.body["reviews"].as_array().size(), 2u);
}

TEST(MedChemTest, LipinskiVerdicts) {
  const SubjectApp& app = med_chem_rules();
  auto check = [&](double mw, double logp, int donors, int acceptors) {
    http::HttpRequest req;
    req.verb = http::Verb::kPost;
    req.path = "/check-lipinski";
    req.params = json::Value::object(
        {{"mw", mw}, {"logp", logp}, {"donors", donors}, {"acceptors", acceptors}});
    return run_one(app, req).body;
  };
  const json::Value druglike = check(342.4, 2.7, 2, 6);
  EXPECT_TRUE(druglike["druglike"].as_bool());
  EXPECT_DOUBLE_EQ(druglike["violations"].as_number(), 0.0);
  const json::Value bad = check(612.0, 6.1, 7, 12);
  EXPECT_FALSE(bad["druglike"].as_bool());
  EXPECT_DOUBLE_EQ(bad["violations"].as_number(), 4.0);
}

TEST(SensorHubTest, SummaryAndAlertsReflectIngestedValues) {
  const SubjectApp& app = sensor_hub();
  trace::ProfilingHarness harness(app.server_source);
  http::HttpRequest ingest;
  ingest.verb = http::Verb::kPost;
  ingest.path = "/ingest";
  ingest.params = json::Value::object(
      {{"sensor", "t9"}, {"values", json::Value::array({70, 80, 90})}});
  harness.invoke({http::Verb::kPost, "/ingest"}, ingest);

  http::HttpRequest summary;
  summary.verb = http::Verb::kGet;
  summary.path = "/summary";
  summary.params = json::Value::object({{"sensor", "t9"}});
  const json::Value s = harness.invoke({http::Verb::kGet, "/summary"}, summary).body;
  EXPECT_DOUBLE_EQ(s["count"].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(s["mean"].as_number(), 80.0);
  EXPECT_DOUBLE_EQ(s["peak"].as_number(), 90.0);

  http::HttpRequest alerts;
  alerts.verb = http::Verb::kGet;
  alerts.path = "/alerts";
  alerts.params = json::Value::object({{"since", 0}});
  const json::Value a = harness.invoke({http::Verb::kGet, "/alerts"}, alerts).body;
  // Default threshold 75: readings 80 and 90 alert.
  EXPECT_EQ(a["alerts"].as_array().size(), 2u);
}

TEST(SensorHubTest, ThresholdChangesAlerting) {
  const SubjectApp& app = sensor_hub();
  trace::ProfilingHarness harness(app.server_source);
  http::HttpRequest ingest;
  ingest.verb = http::Verb::kPost;
  ingest.path = "/ingest";
  ingest.params = json::Value::object(
      {{"sensor", "t1"}, {"values", json::Value::array({50, 60})}});
  harness.invoke({http::Verb::kPost, "/ingest"}, ingest);

  http::HttpRequest set;
  set.verb = http::Verb::kPost;
  set.path = "/threshold";
  set.params = json::Value::object({{"level", 55}});
  harness.invoke({http::Verb::kPost, "/threshold"}, set);

  http::HttpRequest alerts;
  alerts.verb = http::Verb::kGet;
  alerts.path = "/alerts";
  alerts.params = json::Value::object({{"since", 0}});
  EXPECT_EQ(harness.invoke({http::Verb::kGet, "/alerts"}, alerts).body["alerts"]
                .as_array().size(), 1u);
}

TEST(GeoTaggerTest, NearbyFiltersByDistance) {
  const SubjectApp& app = geo_tagger();
  trace::ProfilingHarness harness(app.server_source);
  auto tag = [&](double lat, double lon) {
    http::HttpRequest req;
    req.verb = http::Verb::kPost;
    req.path = "/tag";
    req.params = json::Value::object({{"lat", lat}, {"lon", lon}});
    req.payload_bytes = 100000;
    harness.invoke({http::Verb::kPost, "/tag"}, req);
  };
  tag(10.0, 10.0);
  tag(50.0, 50.0);
  http::HttpRequest nearby;
  nearby.verb = http::Verb::kGet;
  nearby.path = "/nearby";
  nearby.params = json::Value::object({{"lat", 10.1}, {"lon", 10.1}});
  const json::Value resp = harness.invoke({http::Verb::kGet, "/nearby"}, nearby).body;
  EXPECT_EQ(resp["nearby"].as_array().size(), 1u);
}

TEST(TextNotesTest, SentimentScoring) {
  const SubjectApp& app = text_notes();
  auto note = [&](const std::string& text) {
    http::HttpRequest req;
    req.verb = http::Verb::kPost;
    req.path = "/note";
    req.params = json::Value::object({{"text", text}});
    return run_one(app, req).body["sentiment"].as_number();
  };
  EXPECT_DOUBLE_EQ(note("what a good great day"), 2.0);
  EXPECT_DOUBLE_EQ(note("awful bad hate"), -3.0);
  EXPECT_DOUBLE_EQ(note("nothing notable"), 0.0);
}

TEST(TextNotesTest, SearchAndDelete) {
  const SubjectApp& app = text_notes();
  trace::ProfilingHarness harness(app.server_source);
  auto post = [&](const std::string& text) {
    http::HttpRequest req;
    req.verb = http::Verb::kPost;
    req.path = "/note";
    req.params = json::Value::object({{"text", text}});
    harness.invoke({http::Verb::kPost, "/note"}, req);
  };
  post("buy milk");
  post("good milk tea");
  post("trail run");

  http::HttpRequest search;
  search.verb = http::Verb::kPost;
  search.path = "/search";
  search.params = json::Value::object({{"term", "milk"}});
  EXPECT_EQ(harness.invoke({http::Verb::kPost, "/search"}, search).body["matches"]
                .as_array().size(), 2u);

  http::HttpRequest del;
  del.verb = http::Verb::kDelete;
  del.path = "/note";
  del.params = json::Value::object({{"id", 1}});
  EXPECT_DOUBLE_EQ(
      harness.invoke({http::Verb::kDelete, "/note"}, del).body["removed"].as_number(), 1.0);
  EXPECT_EQ(harness.invoke({http::Verb::kPost, "/search"}, search).body["matches"]
                .as_array().size(), 1u);
}

TEST(AppModelFilesTest, HeavyAppsCarryRealisticModels) {
  // The models are what make S_app (cross-ISA sync) heavy.
  struct Expect {
    const SubjectApp* app;
    const char* path;
    std::size_t min_bytes;
  };
  const Expect expectations[] = {
      {&fobojet(), "models/ssd_mobilenet.bin", 2 * 1024 * 1024},
      {&mnist_rest(), "models/mnist_cnn.bin", 700 * 1024},
      {&geo_tagger(), "models/scene_net.bin", 1280 * 1024},
  };
  for (const Expect& e : expectations) {
    trace::ProfilingHarness harness(e.app->server_source);
    ASSERT_TRUE(harness.filesystem().exists(e.path)) << e.app->name;
    EXPECT_GE(harness.filesystem().read(e.path).size(), e.min_bytes) << e.app->name;
  }
}

// Serving reuses the interpreter's recycled frames: 1,000 requests of any
// route leave the same environments live as after init, on both engines.
// Each route starts from a fresh init, so no route serves another's rows.
TEST(AppServingTest, LiveEnvironmentsStayFlatAcrossRequests) {
  for (const SubjectApp* app : {&sensor_hub(), &bookworm(), &text_notes()}) {
    for (const bool vm : {false, true}) {
      minijs::InterpreterConfig config;
      config.vm = vm;
      for (const http::Route& route : app->services) {
        SCOPED_TRACE(app->name + " " + route.to_string() + (vm ? " (vm)" : " (tree-walker)"));
        const auto it = std::find_if(app->workload.begin(), app->workload.end(),
                                     [&](const http::HttpRequest& r) {
                                       return r.verb == route.verb && r.path == route.path;
                                     });
        ASSERT_NE(it, app->workload.end());
        trace::ProfilingHarness harness(app->server_source, config);
        const std::size_t after_init = harness.interpreter().live_environments();
        for (int i = 0; i < 1000; ++i) harness.invoke(route, *it);
        EXPECT_EQ(harness.interpreter().live_environments(), after_init);
      }
    }
  }
}

}  // namespace
}  // namespace edgstr::apps
