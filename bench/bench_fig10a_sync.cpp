// Figure 10(a): effectiveness of EdgStr's synchronization (§IV-E1).
//
// WAN bytes per service invocation for three strategies:
//   original  — the unmodified two-tier request/response itself
//   EdgStr    — CRDT delta synchronization after an edge-served execution
//               (max across the workload, matching the paper's W_AN_e max)
//   cross-ISA — offloading frameworks that synchronize the entire working
//               memory S_app (both directions) per offloaded invocation
//
// Expected shape: EdgStr << original for data-heavy subjects, and EdgStr
// is orders of magnitude below the cross-ISA baseline everywhere.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "edgstr/baselines.h"

using namespace edgstr;
using namespace edgstr::bench;

namespace {

util::MetricsRegistry g_reg;  ///< headline numbers, dumped from main()

void run_fig10a() {
  std::printf("\n=== Figure 10(a): WAN traffic per invocation (KB) ===\n\n");
  std::printf("%-15s %14s %14s %14s %18s\n", "app", "original", "EdgStr sync",
              "cross-ISA", "crossISA/EdgStr");
  print_rule('-', 84);

  for (const apps::SubjectApp* app : apps::all_subject_apps()) {
    const core::TransformResult& result = transformed(*app);
    if (!result.ok) continue;

    // Original request traffic (mean over the workload).
    double original_bytes = 0;
    {
      core::DeploymentConfig config;
      config.start_sync = false;
      core::TwoTierDeployment two(result.cloud_source, config);
      for (const http::HttpRequest& req : app->workload) {
        const http::HttpResponse resp = two.request_sync(req);
        original_bytes += double(req.wire_size() + resp.wire_size());
      }
      original_bytes /= double(app->workload.size());
    }

    // EdgStr sync traffic per edge-served invocation (max over workload).
    double edgstr_max = 0;
    {
      core::DeploymentConfig config;
      config.start_sync = false;
      core::ThreeTierDeployment three(result, config);
      for (const http::HttpRequest& req : app->workload) {
        three.sync().reset_traffic_stats();
        three.request_sync(req, 0);
        three.sync().tick();
        three.network().clock().run();
        edgstr_max = std::max(edgstr_max, double(three.sync().total_sync_bytes()));
      }
    }

    // Cross-ISA whole-state baseline. Offloading frameworks exchange the
    // whole working memory: application state plus the language-runtime
    // image (a modest Node.js process resident set).
    constexpr std::uint64_t kNodeRuntimeImageBytes = 24ull * 1024 * 1024;
    const core::CrossIsaSync cross =
        core::CrossIsaSync::from_snapshot(result.full_snapshot, kNodeRuntimeImageBytes);
    const double cross_bytes = double(cross.bytes_per_invocation());

    g_reg.set("fig10a.wan_bytes.original." + app->name, original_bytes);
    g_reg.set("fig10a.wan_bytes.edgstr." + app->name, edgstr_max);
    g_reg.set("fig10a.wan_bytes.cross_isa." + app->name, cross_bytes);
    std::printf("%-15s %14.2f %14.2f %14.2f %17.1fx\n", app->name.c_str(),
                original_bytes / 1024.0, edgstr_max / 1024.0, cross_bytes / 1024.0,
                cross_bytes / std::max(edgstr_max, 1.0));
  }
  std::printf("\nShape check (paper): for the data-intensive subjects a single original\n"
              "invocation moves more WAN bytes than EdgStr's entire state delta; the\n"
              "cross-ISA baseline is orders of magnitude above EdgStr everywhere.\n");
}

// Op traffic in the batched wire format, same workload and schedule as
// Fig. 10(a): convergence rounds, op-bearing bytes, and messages per app.
void run_wire_format() {
  std::printf("\n=== Sync wire format: batched op traffic ===\n\n");
  std::printf("%-15s %12s %14s %7s\n", "app", "rounds", "op bytes", "msgs");
  print_rule('-', 52);

  for (const apps::SubjectApp* app : apps::all_subject_apps()) {
    const core::TransformResult& result = transformed(*app);
    if (!result.ok) continue;

    core::DeploymentConfig config;
    config.start_sync = false;
    core::ThreeTierDeployment three(result, config);
    int rounds = 0;
    for (const http::HttpRequest& req : app->workload) {
      three.request_sync(req, 0);
      const int used = three.sync().sync_until_converged();
      if (used > 0) rounds += used;
    }
    util::MetricsRegistry& m = three.sync().metrics();
    // Op traffic only: digests are reported under their own kind.
    std::printf("%-15s %12d %14.0f %7.0f\n", app->name.c_str(), rounds,
                m.value("sync.bytes.wire.ops"), m.value("sync.messages"));
  }

  // Per-doc / per-endpoint breakdown for one representative subject.
  const apps::SubjectApp& app = apps::sensor_hub();
  const core::TransformResult& result = transformed(app);
  if (result.ok) {
    core::DeploymentConfig config;
    config.start_sync = false;
    core::ThreeTierDeployment three(result, config);
    for (const http::HttpRequest& req : app.workload) {
      three.request_sync(req, 0);
      three.sync().sync_until_converged();
    }
    std::printf("\n--- sensor_hub sync metrics (per doc / per endpoint) ---\n%s",
                three.sync().metrics().format("sync.").c_str());
  }
}

// Digest anti-entropy on the two redundant topologies: every endpoint
// ships exactly the ranges its peer's digest proves missing, so an op a
// third replica already delivered is never re-sent. Total wire bytes,
// digest overhead included.
void run_topology_sync() {
  std::printf("\n=== Sync topology: digest anti-entropy, total wire bytes ===\n\n");
  std::printf("%-15s %-10s %14s\n", "app", "topology", "digest B");
  print_rule('-', 41);

  struct Scenario {
    const char* name;
    core::SyncTopology topology;
    std::size_t edges;
  };
  const Scenario scenarios[] = {
      {"mesh", core::SyncTopology::kStarEdgeMesh, 3},
      {"hierarchy", core::SyncTopology::kHierarchy, 4},
  };

  std::map<std::string, double> total_digest;
  for (const apps::SubjectApp* app : apps::all_subject_apps()) {
    const core::TransformResult& result = transformed(*app);
    if (!result.ok) continue;

    for (const Scenario& scenario : scenarios) {
      core::DeploymentConfig config;
      config.start_sync = false;
      config.topology = scenario.topology;
      config.edge_devices.assign(scenario.edges, cluster::DeviceProfile::rpi4());
      core::ThreeTierDeployment three(result, config);
      std::size_t i = 0;
      for (int pass = 0; pass < 3; ++pass) {
        // Writes land round-robin across edges; one sync round runs per
        // sweep, so every round opens with fresh deltas at several
        // endpoints and ops reach most replicas by more than one path.
        // Three passes keep this steady-state phase, not the final
        // convergence tail, the dominant cost.
        for (const http::HttpRequest& req : app->workload) {
          three.request_sync(req, i++ % scenario.edges);
          if (i % scenario.edges == 0) {
            three.sync().tick();
            three.network().clock().run();
          }
        }
      }
      three.sync().sync_until_converged();
      const double dig = double(three.sync().total_sync_bytes());
      g_reg.set("fig10a.topo_sync_bytes.digest." + std::string(scenario.name) + "." + app->name,
                dig);
      total_digest[scenario.name] += dig;
      std::printf("%-15s %-10s %14.0f\n", app->name.c_str(), scenario.name, dig);
    }
  }
  print_rule('-', 41);
  for (const Scenario& scenario : scenarios) {
    const double dig = total_digest[scenario.name];
    g_reg.set(std::string("fig10a.topo_sync_bytes.digest.") + scenario.name, dig);
    std::printf("%-15s %-10s %14.0f\n", "TOTAL", scenario.name, dig);
  }
}

void BM_CollectChanges(benchmark::State& state) {
  const apps::SubjectApp& app = apps::sensor_hub();
  const core::TransformResult& result = transformed(app);
  core::DeploymentConfig config;
  config.start_sync = false;
  core::ThreeTierDeployment three(result, config);
  const http::HttpRequest req = primary_request(app);
  three.request_sync(req, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(three.edge_state(0).collect_changes({}));
  }
}
BENCHMARK(BM_CollectChanges);

}  // namespace

int main(int argc, char** argv) {
  run_fig10a();
  run_wire_format();
  run_topology_sync();
  dump_metrics_json(g_reg, "fig10a_sync");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
