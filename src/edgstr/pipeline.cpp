#include "edgstr/pipeline.h"

#include "minijs/parser.h"
#include "minijs/printer.h"
#include "refactor/normalize.h"
#include "trace/fuzzer.h"
#include "util/logging.h"

namespace edgstr::core {

std::size_t TransformResult::replicable_count() const {
  std::size_t count = 0;
  for (const ServiceAnalysis& s : services) {
    if (s.replicable) ++count;
  }
  return count;
}

const ServiceAnalysis* TransformResult::find_service(const http::Route& route) const {
  for (const ServiceAnalysis& s : services) {
    if (s.route == route) return &s;
  }
  return nullptr;
}

http::TrafficRecorder record_traffic(const std::string& server_source,
                                     const std::vector<http::HttpRequest>& client_requests) {
  trace::ProfilingHarness harness(server_source);
  http::TrafficRecorder recorder;
  double t = 0;
  for (const http::HttpRequest& req : client_requests) {
    http::HttpResponse resp;
    try {
      resp = harness.invoke(http::Route{req.verb, req.path}, req);
    } catch (const minijs::JsError& err) {
      resp = http::HttpResponse::error(500, err.what());
    }
    recorder.record(req, resp, t);
    t += 0.1;
  }
  return recorder;
}

namespace {

/// Filters a full snapshot down to the union of the services' needs —
/// "replicating only the necessary cloud-based init state" (Algorithm 1).
trace::Snapshot filter_snapshot(const trace::Snapshot& full,
                                const std::set<std::string>& tables,
                                const std::set<std::string>& files,
                                const std::set<std::string>& globals) {
  trace::Snapshot out;  // components keep their stamps
  for (const auto& [name, comp] : full.tables) {
    if (tables.count(name)) out.tables.emplace(name, comp);
  }
  for (const auto& [path, comp] : full.files) {
    if (files.count(path)) out.files.emplace(path, comp);
  }
  for (const auto& [name, comp] : full.globals) {
    if (globals.count(name)) out.globals.emplace(name, comp);
  }
  return out;
}

}  // namespace

TransformResult Pipeline::transform(const std::string& app_name,
                                    const std::string& server_source,
                                    const http::TrafficRecorder& traffic) const {
  TransformResult result;
  result.app_name = app_name;

  // §III-A: infer the Subject interface from the captured traffic.
  const std::vector<http::ServiceProfile> profiles = traffic.infer_services();
  if (profiles.empty()) {
    result.error = "no services observed in the captured traffic";
    return result;
  }

  // Normalize the server program (temporaries for entry/exit pinning) and
  // use the normalized source for everything downstream.
  minijs::Program parsed = minijs::parse_program(server_source);
  minijs::Program normalized = refactor::normalize(parsed);
  result.cloud_source = minijs::print_program(normalized);

  // Profiling harness on the normalized program.
  trace::ProfilingHarness harness(result.cloud_source, config_.interpreter);
  result.full_snapshot = harness.init_snapshot();

  const minijs::Program& program = harness.interpreter().program();
  refactor::DependenceAnalyzer analyzer(program);
  trace::Fuzzer fuzzer(harness, util::Rng(17));

  // Live-session replay (§III-A: EdgStr instruments *all* captured traffic,
  // not only isolated executions). Fuzzing runs from the checkpointed init
  // state, so state accesses that only occur once earlier requests have
  // populated tables/files — e.g. an export that iterates existing rows —
  // would be invisible to it. Replaying the captured session in order, with
  // state accumulating as it did live, closes that coverage gap.
  struct LiveObservation {
    std::set<std::string> needed_tables, mutated_tables;
    std::set<std::string> needed_files, mutated_files;
    std::set<std::string> mutated_globals;
  };
  std::set<std::string> top_level_vars;
  for (const minijs::StmtPtr& stmt : program.body) {
    if (stmt->kind == minijs::StmtKind::kVarDecl) top_level_vars.insert(stmt->name);
  }
  std::map<http::Route, LiveObservation> live;
  harness.restore_init();
  for (const http::TrafficRecord& record : traffic.records()) {
    const http::Route route{record.request.verb, record.request.path};
    trace::RwCollector collector;
    try {
      harness.invoke(route, record.request, &collector);
    } catch (const minijs::JsError&) {
      continue;  // live failures carry no replication signal
    }
    LiveObservation& obs = live[route];
    for (const trace::SqlEvent& e : collector.sql_events()) {
      if (e.table.empty()) continue;
      obs.needed_tables.insert(e.table);
      if (e.mutation) obs.mutated_tables.insert(e.table);
    }
    for (const trace::FileEvent& e : collector.file_events()) {
      obs.needed_files.insert(e.path);
      if (e.write) obs.mutated_files.insert(e.path);
    }
    for (const trace::RwEvent& e : collector.events()) {
      if (e.kind == trace::RwEvent::Kind::kWrite && top_level_vars.count(e.name())) {
        obs.mutated_globals.insert(e.name());
      }
    }
  }
  harness.restore_init();

  std::set<std::string> tables, files, globals;
  std::vector<refactor::ServiceCodegen> replicable;

  for (const http::ServiceProfile& profile : profiles) {
    ServiceAnalysis analysis;
    analysis.route = profile.route;
    try {
      analysis.fuzz_report = fuzzer.fuzz(profile, config_.fuzz_runs);
      // Profile the per-execution CPU cost on the unfuzzed exemplar.
      const trace::ProfilingHarness::IsolatedResult isolated =
          harness.invoke_isolated(profile.route, analysis.fuzz_report.runs.front().request);
      analysis.mean_compute_units = isolated.compute_units;

      analysis.plan = analyzer.analyze(analysis.fuzz_report);
      if (!analysis.plan.ok) {
        analysis.failure_reason = analysis.plan.error;
        result.services.push_back(std::move(analysis));
        continue;
      }
      // Union the live-session observations into the plan.
      auto live_it = live.find(profile.route);
      if (live_it != live.end()) {
        const LiveObservation& obs = live_it->second;
        analysis.plan.needed_tables.insert(obs.needed_tables.begin(), obs.needed_tables.end());
        analysis.plan.mutated_tables.insert(obs.mutated_tables.begin(),
                                            obs.mutated_tables.end());
        analysis.plan.needed_files.insert(obs.needed_files.begin(), obs.needed_files.end());
        analysis.plan.mutated_files.insert(obs.mutated_files.begin(), obs.mutated_files.end());
        analysis.plan.needed_globals.insert(obs.mutated_globals.begin(),
                                            obs.mutated_globals.end());
        analysis.plan.mutated_globals.insert(obs.mutated_globals.begin(),
                                             obs.mutated_globals.end());
      }
      analysis.state_info = summarize_state(program, analysis.plan, analysis.fuzz_report);

      // §III-D: Consult Developer.
      if (!config_.advisor(analysis.state_info)) {
        analysis.advisor_rejected = true;
        analysis.failure_reason = "developer rejected eventual consistency for this state";
        result.services.push_back(std::move(analysis));
        continue;
      }

      analysis.function = refactor::extract_function(program, analysis.plan);
      if (!analysis.function.ok) {
        analysis.failure_reason = analysis.function.error;
        result.services.push_back(std::move(analysis));
        continue;
      }

      analysis.replicable = true;
      tables.insert(analysis.plan.needed_tables.begin(), analysis.plan.needed_tables.end());
      files.insert(analysis.plan.needed_files.begin(), analysis.plan.needed_files.end());
      globals.insert(analysis.plan.needed_globals.begin(), analysis.plan.needed_globals.end());
      replicable.push_back(refactor::ServiceCodegen{analysis.plan, analysis.function});
      result.services.push_back(std::move(analysis));
    } catch (const std::exception& err) {
      analysis.failure_reason = err.what();
      result.services.push_back(std::move(analysis));
      EDGSTR_WARN() << "analysis of " << profile.route.to_string() << " failed: " << err.what();
    }
  }

  if (replicable.empty()) {
    result.error = "no service could be replicated";
    return result;
  }

  // §III-G2: generate the replica program.
  result.replica = refactor::ReplicaCodegen().generate(app_name, program, replicable);
  result.init_snapshot = filter_snapshot(result.full_snapshot, tables, files, globals);
  result.replicated_files = files;
  result.replicated_globals = globals;
  result.ok = true;
  return result;
}

}  // namespace edgstr::core
