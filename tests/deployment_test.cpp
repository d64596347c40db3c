#include <gtest/gtest.h>

#include "apps/app.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"

namespace edgstr::core {
namespace {

const TransformResult& transform_notes() {
  static const TransformResult result = [] {
    const apps::SubjectApp& app = apps::text_notes();
    const http::TrafficRecorder traffic = record_traffic(app.server_source, app.workload);
    return Pipeline().transform(app.name, app.server_source, traffic);
  }();
  return result;
}

TEST(TwoTierDeploymentTest, ServesRequests) {
  DeploymentConfig config;
  TwoTierDeployment two(transform_notes().cloud_source, config);
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/note";
  req.params = json::Value::object({{"text", "good"}});
  double latency = 0;
  const http::HttpResponse resp = two.request_sync(req, &latency);
  EXPECT_TRUE(resp.ok());
  EXPECT_GT(latency, 0.0);
  EXPECT_EQ(two.path().stats().requests, 1u);
  EXPECT_EQ(two.cloud().name(), std::string(kCloudHost));
}

TEST(ThreeTierDeploymentTest, RejectsFailedTransforms) {
  TransformResult bad;
  bad.ok = false;
  DeploymentConfig config;
  EXPECT_THROW(ThreeTierDeployment(bad, config), std::invalid_argument);
}

TEST(ThreeTierDeploymentTest, BuildsRequestedEdgeCount) {
  DeploymentConfig config;
  config.start_sync = false;
  config.edge_devices = {cluster::DeviceProfile::rpi4(), cluster::DeviceProfile::rpi3(),
                         cluster::DeviceProfile::rpi3()};
  ThreeTierDeployment three(transform_notes(), config);
  EXPECT_EQ(three.edges().size(), 3u);
  EXPECT_EQ(three.edge(1).name(), edge_host(1));
  // Cloud + 3 edges registered in the replication graph, star-linked.
  EXPECT_EQ(three.replication().endpoint_count(), 4u);
  EXPECT_EQ(three.replication().link_count(), 3u);
  // Each edge is network-connected to both client and cloud.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(three.network().connected(kClientHost, edge_host(i)));
    EXPECT_TRUE(three.network().connected(edge_host(i), kCloudHost));
  }
}

TEST(ThreeTierDeploymentTest, ServedRoutesMatchReplica) {
  DeploymentConfig config;
  config.start_sync = false;
  ThreeTierDeployment three(transform_notes(), config);
  EXPECT_EQ(three.served_routes().size(), transform_notes().replica.served_routes().size());
  EXPECT_TRUE(three.served_routes().count({http::Verb::kPost, "/note"}));
}

TEST(ThreeTierDeploymentTest, FreshDeploymentIsConverged) {
  DeploymentConfig config;
  config.start_sync = false;
  ThreeTierDeployment three(transform_notes(), config);
  EXPECT_TRUE(three.replication().converged());  // identical init snapshots everywhere
}

TEST(ThreeTierDeploymentTest, RequestsRoutableToSpecificEdges) {
  DeploymentConfig config;
  config.start_sync = false;
  config.edge_devices = {cluster::DeviceProfile::rpi4(), cluster::DeviceProfile::rpi4()};
  ThreeTierDeployment three(transform_notes(), config);
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/note";
  req.params = json::Value::object({{"text", "hello"}});
  three.request_sync(req, 1);  // via edge 1's proxy
  EXPECT_EQ(three.proxy(1).stats().served_at_edge, 1u);
  EXPECT_EQ(three.proxy(0).stats().requests, 0u);
}

TEST(ThreeTierDeploymentTest, PeriodicSyncStartsWhenConfigured) {
  DeploymentConfig config;
  config.start_sync = true;
  config.sync_interval_s = 0.5;
  ThreeTierDeployment three(transform_notes(), config);
  http::HttpRequest req;
  req.verb = http::Verb::kPost;
  req.path = "/note";
  req.params = json::Value::object({{"text", "synced"}});
  three.request_sync(req, 0);
  three.network().clock().run_until(three.network().clock().now() + 3.0);
  three.sync().stop();
  three.network().clock().run_until(three.network().clock().now() + 3.0);
  EXPECT_TRUE(three.replication().converged());
  EXPECT_GT(three.sync().sync_messages(), 0u);
}

TEST(ThreeTierDeploymentTest, EnergyMeterAndBalancerWired) {
  DeploymentConfig config;
  config.start_sync = false;
  config.edge_devices = {cluster::DeviceProfile::rpi4(), cluster::DeviceProfile::rpi3()};
  ThreeTierDeployment three(transform_notes(), config);
  EXPECT_EQ(three.balancer().nodes().size(), 2u);
  EXPECT_EQ(three.balancer().active_node_count(), 2u);
  three.network().clock().schedule(10.0, [] {});
  three.network().clock().run();
  EXPECT_GT(three.energy_meter().total_energy_j(), 0.0);
}

TEST(ThreeTierDeploymentTest, EdgeDeviceHeterogeneityRespected) {
  DeploymentConfig config;
  config.start_sync = false;
  config.edge_devices = {cluster::DeviceProfile::rpi4(), cluster::DeviceProfile::rpi3()};
  ThreeTierDeployment three(transform_notes(), config);
  EXPECT_LT(three.edge(0).spec().seconds_per_unit, three.edge(1).spec().seconds_per_unit);
  EXPECT_NEAR(three.edge(1).spec().seconds_per_unit / three.edge(0).spec().seconds_per_unit,
              1.8, 0.01);
}

}  // namespace
}  // namespace edgstr::core
