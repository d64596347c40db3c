// Live-traffic capture and REST interface inference (§III-A).
//
// EdgStr's first stage attaches a sniffer to the client<->cloud HTTP stream
// and decodes every request/response exchange. From the captured records it
// derives the Subject access interface S = [s_1(p_1) ... s_N(p_N)] =
// [r_1 ... r_N]: the set of externally invokable services with exemplar
// parameters and (non-empty) results.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "http/message.h"
#include "http/router.h"

namespace edgstr::http {

/// One captured client<->cloud exchange.
struct TrafficRecord {
  HttpRequest request;
  HttpResponse response;
  double timestamp_s = 0;  ///< capture time on the simulation clock
};

/// Inferred description of one remote service s_i.
struct ServiceProfile {
  Route route;
  std::vector<json::Value> exemplar_params;    ///< observed p_i values
  std::vector<json::Value> exemplar_results;   ///< observed r_i values
  std::uint64_t request_bytes_total = 0;
  std::size_t invocation_count = 0;

  double mean_request_bytes() const {
    return invocation_count ? static_cast<double>(request_bytes_total) / invocation_count : 0;
  }
};

/// Captures exchanges and infers the Subject interface.
class TrafficRecorder {
 public:
  /// Records one completed exchange.
  void record(const HttpRequest& request, const HttpResponse& response, double timestamp_s);

  const std::vector<TrafficRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// Derives per-service profiles from the captured traffic. Responses with
  /// empty bodies or error statuses are excluded, matching the paper's
  /// assumption of non-empty successful responses.
  std::vector<ServiceProfile> infer_services() const;

  /// HAR-style persistence: captured traffic can be saved and re-loaded so
  /// an analysis run does not need the live app. Opaque payloads persist as
  /// byte counts (their contents never existed in the capture).
  json::Value to_json() const;
  static TrafficRecorder from_json(const json::Value& v);

 private:
  std::vector<TrafficRecord> records_;
};

}  // namespace edgstr::http
