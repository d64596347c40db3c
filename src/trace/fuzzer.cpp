#include "trace/fuzzer.h"

#include <algorithm>
#include <set>

namespace edgstr::trace {

std::vector<int> FuzzReport::common_statements() const {
  std::vector<const FuzzRun*> all;
  for (const FuzzRun& run : runs) all.push_back(&run);
  return trace::common_statements(all);
}

std::vector<int> common_statements(const std::vector<const FuzzRun*>& runs) {
  if (runs.empty()) return {};
  std::set<int> common(runs[0]->executed_statements.begin(), runs[0]->executed_statements.end());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    std::set<int> current(runs[i]->executed_statements.begin(),
                          runs[i]->executed_statements.end());
    std::set<int> kept;
    std::set_intersection(common.begin(), common.end(), current.begin(), current.end(),
                          std::inserter(kept, kept.begin()));
    common = std::move(kept);
  }
  return std::vector<int>(common.begin(), common.end());
}

namespace {

json::Value perturb_json(const json::Value& value, int salt) {
  switch (value.type()) {
    case json::Value::Type::kNumber:
      return json::Value(value.as_number() + salt);
    case json::Value::Type::kString:
      return json::Value(value.as_string() + "_fz" + std::to_string(salt));
    case json::Value::Type::kBool:
      return json::Value(salt % 2 == 0 ? value.as_bool() : !value.as_bool());
    case json::Value::Type::kArray: {
      json::Array out;
      for (const json::Value& item : value.as_array()) out.push_back(perturb_json(item, salt));
      return json::Value(std::move(out));
    }
    case json::Value::Type::kObject: {
      json::Object out;
      for (const auto& [k, v] : value.as_object()) out.set(k, perturb_json(v, salt));
      return json::Value(std::move(out));
    }
    default:
      return value;
  }
}

}  // namespace

http::HttpRequest Fuzzer::perturb(const http::HttpRequest& exemplar, int salt) {
  http::HttpRequest fuzzed = exemplar;
  if (salt == 0) return fuzzed;  // run 0 replays the exemplar
  fuzzed.params = perturb_json(exemplar.params, salt);
  if (exemplar.payload_bytes > 0) {
    // Vary payload size so the blob fingerprint (and thus every value
    // derived from it) changes.
    fuzzed.payload_bytes = exemplar.payload_bytes + static_cast<std::uint64_t>(salt) * 1024;
  }
  return fuzzed;
}

std::map<std::string, std::uint64_t> request_component_digests(const http::HttpRequest& request) {
  std::map<std::string, std::uint64_t> digests;
  const minijs::JsValue req = minijs::make_request_object(request);
  const minijs::JsValue params = req.as_object()->get("params");
  digests["params"] = value_digest(params);
  if (params.is_object()) {
    for (const auto& [key, value] : params.as_object()->entries()) {
      digests["params." + key] = value_digest(value);
    }
  }
  if (request.payload_bytes > 0) {
    digests["payload"] = value_digest(req.as_object()->get("payload"));
  }
  return digests;
}

FuzzReport Fuzzer::fuzz(const http::ServiceProfile& profile, int num_runs) {
  if (profile.exemplar_params.empty()) {
    throw std::invalid_argument("Fuzzer: profile has no captured exemplar requests");
  }
  FuzzReport report;
  report.route = profile.route;

  http::HttpRequest exemplar;
  exemplar.verb = profile.route.verb;
  exemplar.path = profile.route.path;
  exemplar.params = profile.exemplar_params.front();
  // Reconstruct the opaque payload size from the captured traffic volume:
  // mean request bytes minus the structured part.
  const double structured = 180.0 + exemplar.path.size() + exemplar.params.wire_size();
  const double payload = profile.mean_request_bytes() - structured;
  if (payload > 16) exemplar.payload_bytes = static_cast<std::uint64_t>(payload);

  for (int i = 0; i < num_runs; ++i) {
    FuzzRun run;
    run.request = perturb(exemplar, i);
    run.param_digests = request_component_digests(run.request);

    RwCollector collector;
    ProfilingHarness::IsolatedResult result =
        harness_.invoke_isolated(profile.route, run.request, &collector);
    run.response = std::move(result.response);
    run.state_diff = std::move(result.state_diff);
    run.response_digest = value_digest(minijs::JsValue::from_json(run.response.body));
    run.events = collector.events();
    run.flow_edges = collector.flow_edges();
    run.sql_events = collector.sql_events();
    run.file_events = collector.file_events();
    run.invoke_events = collector.invoke_events();
    run.executed_statements = collector.executed_statements();
    report.runs.push_back(std::move(run));
  }
  return report;
}

}  // namespace edgstr::trace
