#include "runtime/service_runtime.h"

#include <chrono>

#include "minijs/parser.h"
#include "runtime/variant_harness.h"

namespace edgstr::runtime {

ServiceRuntime::ServiceRuntime(const std::string& source, minijs::InterpreterConfig config) {
  minijs::Program program = minijs::parse_program(source);
  interp_ = std::make_unique<minijs::Interpreter>(std::move(program), config);
  interp_->bind_database(&db_);
  interp_->bind_vfs(&fs_);
  interp_->run_toplevel();
  interp_->drain_compute_units();
  db_.drain_mutations();  // init-time DB writes are baseline, not deltas
}

void ServiceRuntime::restore_state(const trace::Snapshot& snapshot) {
  db_.restore(snapshot.database_json());
  fs_.restore(snapshot.files_json());
  trace::restore_globals(*interp_, snapshot.globals_json());
}

trace::Snapshot ServiceRuntime::capture_state() {
  return trace::Snapshot::from_units(db_.snapshot(), fs_.snapshot(),
                                     trace::capture_globals(*interp_));
}

ExecutionResult ServiceRuntime::handle(const http::HttpRequest& request) {
  ExecutionResult result;
  // The shadow variants replay first, each synced to the live pre-request
  // state and RNG, so no snapshot is taken; the comparison waits for the
  // result. Paid only when a harness is attached.
  if (variant_harness_) variant_harness_->replay(*this, request);
  interp_->drain_compute_units();
  ++requests_served_;
  std::chrono::steady_clock::time_point started;
  std::uint64_t steps_before = 0;
  std::uint64_t ic_hits_before = 0;
  std::uint64_t ic_misses_before = 0;
  if (telemetry_) {
    steps_before = interp_->steps();
    if (interp_->vm_enabled()) {
      ic_hits_before = interp_->ic_hits();
      ic_misses_before = interp_->ic_misses();
    }
    if (wall_clock_metrics_) started = std::chrono::steady_clock::now();
  }
  try {
    result.response = interp_->invoke(http::Route{request.verb, request.path}, request);
  } catch (const minijs::JsError& err) {
    ++failures_;
    result.failed = true;
    result.failure = err.what();
    result.response = http::HttpResponse::error(500, err.what());
  }
  if (telemetry_) {
    if (wall_clock_metrics_) {
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - started)
                            .count();
      telemetry_->metrics().observe("interp.exec.ms", ms);
    }
    telemetry_->metrics().observe("interp.steps",
                                  static_cast<double>(interp_->steps() - steps_before),
                                  util::Histogram::default_count_bounds());
    // VM-only keys are gated so tree-walking runtimes keep byte-identical
    // metrics snapshots.
    if (interp_->vm_enabled()) {
      telemetry_->metrics().observe("vm.ic.hit",
                                    static_cast<double>(interp_->ic_hits() - ic_hits_before),
                                    util::Histogram::default_count_bounds());
      telemetry_->metrics().observe("vm.ic.miss",
                                    static_cast<double>(interp_->ic_misses() - ic_misses_before),
                                    util::Histogram::default_count_bounds());
    }
  }
  result.compute_units = interp_->drain_compute_units();
  if (variant_harness_) {
    const std::size_t diverged = variant_harness_->check(request, result);
    if (telemetry_) {
      const double now = telemetry_->now();
      if (obs::TimeSeries* ts = telemetry_->timeseries()) {
        ts->add(now, "variant.check");
        if (diverged > 0) ts->add(now, "variant.divergence", double(diverged));
      }
      if (diverged > 0) {
        if (obs::FlightRecorder* flight = telemetry_->flight_recorder()) {
          flight->record(now, "variant", "diverge",
                         http::to_string(request.verb) + " " + request.path + " x" +
                             std::to_string(diverged));
        }
      }
    }
  }
  return result;
}

std::vector<http::Route> ServiceRuntime::routes() const {
  std::vector<http::Route> out;
  out.reserve(interp_->routes().size());
  for (const auto& [route, handler] : interp_->routes()) out.push_back(route);
  return out;
}

}  // namespace edgstr::runtime
