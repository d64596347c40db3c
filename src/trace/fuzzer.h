// HTTP-message fuzzing for entry/exit discovery (§III-E).
//
// EdgStr fuzzes the captured HTTP messages so parameter p_1 becomes
// p_1[1..i]; a fuzzing dictionary tracks the perturbed values. Statements
// that read the fuzzed values in every run are unmarshal (entry) points;
// statements whose written/read values track the fuzzed *response* are
// marshal (exit) points. This separates service-related values from
// unrelated primitives that merely happen to coincide in one run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "http/traffic.h"
#include "trace/state_capture.h"
#include "util/rng.h"

namespace edgstr::trace {

/// One instrumented fuzz execution.
struct FuzzRun {
  http::HttpRequest request;
  http::HttpResponse response;
  /// Digest of each request component ("params" subkeys and "payload"),
  /// the fuzzing dictionary entry for this run.
  std::map<std::string, std::uint64_t> param_digests;
  /// Digest of the response body the service marshaled.
  std::uint64_t response_digest = 0;
  /// Instrumentation trace of this run.
  std::vector<RwEvent> events;
  std::vector<FlowEdge> flow_edges;
  std::vector<SqlEvent> sql_events;
  std::vector<FileEvent> file_events;
  std::vector<InvokeEvent> invoke_events;
  std::vector<int> executed_statements;
  StateDiff state_diff;
};

struct FuzzReport {
  http::Route route;
  std::vector<FuzzRun> runs;

  /// Statements executed in every run.
  std::vector<int> common_statements() const;
};

/// Statements executed in every one of `runs`, ascending.
std::vector<int> common_statements(const std::vector<const FuzzRun*>& runs);

class Fuzzer {
 public:
  Fuzzer(ProfilingHarness& harness, util::Rng rng) : harness_(harness), rng_(rng) {}

  /// Runs `num_runs` perturbed executions of the service (state-isolated).
  /// The first run replays the captured exemplar unmodified.
  FuzzReport fuzz(const http::ServiceProfile& profile, int num_runs = 4);

  /// Produces the i-th perturbation of an exemplar request: numbers are
  /// offset, strings get a salt suffix, blob payloads change size — every
  /// component changes so its digest changes.
  static http::HttpRequest perturb(const http::HttpRequest& exemplar, int salt);

 private:
  ProfilingHarness& harness_;
  util::Rng rng_;
};

/// Digest of each top-level request component: params object keys map to
/// the digest of the corresponding unmarshaled JsValue; key "payload" maps
/// to the payload blob digest; key "params" digests the whole params value.
std::map<std::string, std::uint64_t> request_component_digests(const http::HttpRequest& request);

}  // namespace edgstr::trace
