#include "http/traffic.h"

namespace edgstr::http {

void TrafficRecorder::record(const HttpRequest& request, const HttpResponse& response,
                             double timestamp_s) {
  records_.push_back(TrafficRecord{request, response, timestamp_s});
}

std::vector<ServiceProfile> TrafficRecorder::infer_services() const {
  std::map<Route, ServiceProfile> by_route;
  for (const TrafficRecord& rec : records_) {
    if (!rec.response.ok()) continue;
    const bool empty_body =
        rec.response.body.is_null() ||
        (rec.response.body.is_object() && rec.response.body.as_object().empty());
    if (empty_body && rec.response.payload_bytes == 0) continue;

    const Route route{rec.request.verb, rec.request.path};
    ServiceProfile& profile = by_route[route];
    profile.route = route;
    profile.exemplar_params.push_back(rec.request.params);
    profile.exemplar_results.push_back(rec.response.body);
    profile.request_bytes_total += rec.request.wire_size();
    ++profile.invocation_count;
  }

  std::vector<ServiceProfile> out;
  out.reserve(by_route.size());
  for (auto& [route, profile] : by_route) out.push_back(std::move(profile));
  return out;
}

json::Value TrafficRecorder::to_json() const {
  json::Array entries;
  entries.reserve(records_.size());
  for (const TrafficRecord& rec : records_) {
    entries.push_back(json::Value::object(
        {{"request",
          json::Value::object({{"verb", to_string(rec.request.verb)},
                               {"path", rec.request.path},
                               {"params", rec.request.params},
                               {"payload_bytes", double(rec.request.payload_bytes)}})},
         {"response",
          json::Value::object({{"status", rec.response.status},
                               {"body", rec.response.body},
                               {"payload_bytes", double(rec.response.payload_bytes)}})},
         {"timestamp_s", rec.timestamp_s}}));
  }
  return json::Value::object({{"entries", json::Value(std::move(entries))}});
}

TrafficRecorder TrafficRecorder::from_json(const json::Value& v) {
  TrafficRecorder recorder;
  for (const json::Value& entry : v["entries"].as_array()) {
    HttpRequest req;
    req.verb = verb_from_string(entry["request"]["verb"].as_string());
    req.path = entry["request"]["path"].as_string();
    req.params = entry["request"]["params"];
    req.payload_bytes =
        static_cast<std::uint64_t>(entry["request"]["payload_bytes"].as_number());
    HttpResponse resp;
    resp.status = static_cast<int>(entry["response"]["status"].as_number());
    resp.body = entry["response"]["body"];
    resp.payload_bytes =
        static_cast<std::uint64_t>(entry["response"]["payload_bytes"].as_number());
    recorder.record(req, resp, entry["timestamp_s"].as_number());
  }
  return recorder;
}

}  // namespace edgstr::http
