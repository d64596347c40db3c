// End-to-end RQ1 correctness (§IV-B): for all 7 subject apps and their 42
// services, the EdgStr-transformed three-tier deployment must return the
// same results as the original two-tier deployment for the apps' regression
// workloads, and the replicated state must converge after synchronization.
#include <gtest/gtest.h>

#include "apps/app.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"

namespace edgstr::core {
namespace {

class SubjectAppTest : public ::testing::TestWithParam<const apps::SubjectApp*> {};

TEST_P(SubjectAppTest, EveryServiceReplicates) {
  const apps::SubjectApp& app = *GetParam();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.replicable_count(), app.services.size());
  for (const ServiceAnalysis& svc : result.services) {
    EXPECT_TRUE(svc.replicable) << svc.route.to_string() << ": " << svc.failure_reason;
  }
}

TEST_P(SubjectAppTest, RegressionEquivalenceTwoVsThreeTier) {
  const apps::SubjectApp& app = *GetParam();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok) << result.error;

  DeploymentConfig config;
  config.start_sync = false;
  ThreeTierDeployment three(result, config);
  TwoTierDeployment two(result.cloud_source, config);

  for (const http::HttpRequest& req : app.workload) {
    const http::HttpResponse original = two.request_sync(req);
    const http::HttpResponse transformed = three.request_sync(req);
    EXPECT_EQ(original.status, transformed.status) << req.path;
    EXPECT_EQ(original.body, transformed.body)
        << req.path << "\n  two:   " << original.body.dump()
        << "\n  three: " << transformed.body.dump();
  }
  // The replicated state converges once synchronization runs.
  EXPECT_GE(three.sync().sync_until_converged(), 1);
  EXPECT_TRUE(three.replication().converged());
}

TEST_P(SubjectAppTest, EdgeLatencyBeatsCloudOnLimitedWan) {
  const apps::SubjectApp& app = *GetParam();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok);

  DeploymentConfig config;
  config.start_sync = false;
  config.wan = netsim::LinkConfig::limited_wan();
  ThreeTierDeployment three(result, config);
  TwoTierDeployment two(result.cloud_source, config);

  // Compare on the app's primary (heaviest) route.
  http::HttpRequest req;
  for (const http::HttpRequest& r : app.workload) {
    if (http::Route{r.verb, r.path} == app.primary_route) {
      req = r;
      break;
    }
  }
  double cloud_latency = 0, edge_latency = 0;
  two.request_sync(req, &cloud_latency);
  three.request_sync(req, 0, &edge_latency);
  EXPECT_LT(edge_latency, cloud_latency)
      << app.name << ": edge " << edge_latency << "s vs cloud " << cloud_latency << "s";
}

TEST_P(SubjectAppTest, BackgroundSyncConvergesDuringLiveTraffic) {
  const apps::SubjectApp& app = *GetParam();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok);

  DeploymentConfig config;
  config.start_sync = true;
  config.sync_interval_s = 0.25;
  ThreeTierDeployment three(result, config);
  for (const http::HttpRequest& req : app.workload) {
    three.request_sync(req);
  }
  // Let the periodic sync run, then stop it and flush.
  three.network().clock().run_until(three.network().clock().now() + 10.0);
  three.sync().stop();
  three.network().clock().run_until(three.network().clock().now() + 10.0);
  EXPECT_GE(three.sync().sync_until_converged(8), 1);
  EXPECT_TRUE(three.replication().converged());
  EXPECT_GT(three.sync().total_sync_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, SubjectAppTest,
                         ::testing::ValuesIn(apps::all_subject_apps()),
                         [](const ::testing::TestParamInfo<const apps::SubjectApp*>& info) {
                           std::string name = info.param->name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

TEST(MultiEdgeIntegration, TwoEdgesShareStateThroughCloud) {
  const apps::SubjectApp& app = apps::sensor_hub();
  const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
  const TransformResult result = Pipeline().transform(app.name, app.server_source, traffic);
  ASSERT_TRUE(result.ok) << result.error;

  DeploymentConfig config;
  config.start_sync = false;
  config.edge_devices = {cluster::DeviceProfile::rpi4(), cluster::DeviceProfile::rpi3()};
  ThreeTierDeployment three(result, config);

  // Ingest different sensor batches at each edge.
  auto ingest = [&](std::size_t edge, const std::string& sensor, double v) {
    http::HttpRequest req;
    req.verb = http::Verb::kPost;
    req.path = "/ingest";
    req.params = json::Value::object(
        {{"sensor", sensor}, {"values", json::Value::array({v, v + 1})}});
    three.request_sync(req, edge);
  };
  ingest(0, "a", 10);
  ingest(1, "b", 90);

  ASSERT_GE(three.sync().sync_until_converged(8), 1);
  EXPECT_TRUE(three.replication().converged());

  // Edge 0 now sees edge 1's readings (relayed through the cloud).
  http::HttpRequest summary;
  summary.verb = http::Verb::kGet;
  summary.path = "/summary";
  summary.params = json::Value::object({{"sensor", "b"}});
  const http::HttpResponse resp = three.request_sync(summary, 0);
  EXPECT_DOUBLE_EQ(resp.body["count"].as_number(), 2.0);
}

TEST(FailureHandlingIntegration, EdgeFailureForwardsToCloud) {
  // A service whose handler fails at the edge for lack of a file that only
  // the cloud has (simulating an un-replicable dependency).
  const char* source = R"JS(
    var n = 0;
    fs.writeFile("data/common.txt", "shared");
    app.get("/fragile", function (req, res) {
      var q = req.params.q;
      var data = fs.readFile("data/secret-" + q + ".txt");
      res.send({ data: data, q: q });
    });
    app.get("/solid", function (req, res) {
      var q = req.params.q;
      n = n + 1;
      res.send({ ok: q, n: n });
    });
  )JS";
  std::vector<http::HttpRequest> workload;
  for (int q : {1, 2}) {
    http::HttpRequest req;
    req.path = "/solid";
    req.params = json::Value::object({{"q", q}});
    workload.push_back(req);
  }
  const http::TrafficRecorder traffic = record_traffic(source, workload);
  const TransformResult result = Pipeline().transform("fragile-app", source, traffic);
  ASSERT_TRUE(result.ok) << result.error;

  DeploymentConfig config;
  config.start_sync = false;
  ThreeTierDeployment three(result, config);
  // Plant the secret file only on the cloud.
  three.cloud().service()->filesystem().write("data/secret-9.txt", "cloud-only");

  // Manually widen the served set so the edge *attempts* /fragile.
  http::HttpRequest req;
  req.path = "/fragile";
  req.params = json::Value::object({{"q", 9}});
  // /fragile was never in the traffic, so the proxy forwards it; the cloud
  // answers successfully.
  const http::HttpResponse resp = three.request_sync(req);
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.body["data"].as_string(), "cloud-only");
  EXPECT_EQ(three.proxy(0).stats().forwarded_to_cloud, 1u);
}

}  // namespace
}  // namespace edgstr::core
