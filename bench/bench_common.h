// Shared helpers for the evaluation benchmarks (one binary per table/figure).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "apps/app.h"
#include "edgstr/deployment.h"
#include "edgstr/pipeline.h"
#include "obs/export.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace edgstr::bench {

/// Transforms a subject app, caching the (deterministic) result per app so
/// multi-scenario benches pay the analysis once.
inline const core::TransformResult& transformed(const apps::SubjectApp& app) {
  static std::map<std::string, core::TransformResult> cache;
  auto it = cache.find(app.name);
  if (it == cache.end()) {
    const http::TrafficRecorder traffic =
        core::record_traffic(app.server_source, app.workload);
    it = cache.emplace(app.name, core::Pipeline().transform(app.name, app.server_source, traffic))
             .first;
    if (!it->second.ok) {
      std::fprintf(stderr, "transform of %s failed: %s\n", app.name.c_str(),
                   it->second.error.c_str());
    }
  }
  return it->second;
}

/// The exemplar workload request for an app's primary route.
inline http::HttpRequest primary_request(const apps::SubjectApp& app) {
  for (const http::HttpRequest& req : app.workload) {
    if (http::Route{req.verb, req.path} == app.primary_route) return req;
  }
  return app.workload.front();
}

/// Closed-loop throughput measurement: `concurrency` clients keep one
/// request each in flight for `duration_s` of simulated time. Returns
/// completed requests per second.
template <typename RequestFn>
double measure_throughput(netsim::SimClock& clock, RequestFn issue, double duration_s,
                          int concurrency = 4) {
  const double start = clock.now();
  const double deadline = start + duration_s;
  std::size_t completed = 0;

  std::function<void()> launch = [&]() {
    issue([&](http::HttpResponse, double) {
      ++completed;
      if (clock.now() < deadline) launch();
    });
  };
  for (int i = 0; i < concurrency; ++i) launch();
  clock.run_until(deadline);
  return static_cast<double>(completed) / duration_s;
}

/// One synchronous request through a callable path; returns latency seconds.
template <typename Path>
double timed_request(netsim::SimClock& clock, Path& path, const http::HttpRequest& req) {
  double latency = -1;
  bool done = false;
  path.request(req, [&](http::HttpResponse, double l) {
    latency = l;
    done = true;
  });
  while (!done && clock.step()) {
  }
  return latency;
}

inline void print_rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Writes a bench's headline numbers as `BENCH_<name>.json` (or to `path`
/// when given) in the exporters' metrics-snapshot schema, so CI can diff
/// bench results across runs without scraping stdout. Returns true on a
/// successful write.
inline bool dump_metrics_json(const util::MetricsRegistry& registry, const std::string& bench,
                              const std::string& path = {}) {
  const std::string out = path.empty() ? "BENCH_" + bench + ".json" : path;
  if (!obs::write_text_file(out, obs::metrics_json(registry).dump_pretty() + "\n")) return false;
  std::printf("[%s] wrote %s\n", bench.c_str(), out.c_str());
  return true;
}

}  // namespace edgstr::bench
