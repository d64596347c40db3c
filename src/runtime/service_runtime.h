// Production host for one service instance (cloud master or edge replica).
//
// Owns the MiniJS interpreter plus its database and filesystem. Unlike the
// ProfilingHarness (which isolates state around every run), the runtime
// executes against live state — this is the deployed service.
#pragma once

#include <memory>
#include <string>

#include "minijs/interpreter.h"
#include "obs/telemetry.h"
#include "trace/state_capture.h"

namespace edgstr::runtime {

class VariantHarness;

/// Result of one service execution, with the simulated CPU cost attached.
struct ExecutionResult {
  http::HttpResponse response;
  double compute_units = 0;
  bool failed = false;       ///< handler threw (JsError)
  std::string failure;
};

class ServiceRuntime {
 public:
  /// Parses the source and runs its init (top level).
  explicit ServiceRuntime(const std::string& source,
                          minijs::InterpreterConfig config = minijs::InterpreterConfig());

  /// Restores a state snapshot into the three replication units (used to
  /// initialize edge replicas from the cloud snapshot).
  void restore_state(const trace::Snapshot& snapshot);

  /// Current state snapshot.
  trace::Snapshot capture_state();

  /// Executes one request against live state. Handler exceptions are
  /// caught and reported via `failed` — the caller (an edge proxy)
  /// implements the forward-to-cloud failure policy.
  ExecutionResult handle(const http::HttpRequest& request);

  bool has_route(const http::Route& route) const { return interp_->has_route(route); }
  std::vector<http::Route> routes() const;

  minijs::Interpreter& interpreter() { return *interp_; }
  sqldb::Database& database() { return db_; }
  vfs::Vfs& filesystem() { return fs_; }

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t failures() const { return failures_; }

  /// Execution-engine observability: when attached, every handle() records
  /// an `interp.steps` histogram (deterministic interpreter step counts).
  /// With `wall_clock` set it additionally records `interp.exec.ms`
  /// wall-clock durations — opt-in because deployment metrics snapshots
  /// must be same-seed reproducible (sim/schedule determinism contract);
  /// benches enable it, simulations never do. Costs one branch per request
  /// when detached (the default) — the serve path stays hook-free.
  void set_telemetry(obs::Telemetry* telemetry, bool wall_clock = false) {
    telemetry_ = telemetry;
    wall_clock_metrics_ = wall_clock;
  }

  /// Online multi-variant cross-checking: when attached, every handle()
  /// first lets the harness replay the request on each shadow engine
  /// variant (synced to this runtime's live state and RNG), then hands it
  /// the finished result to compare and record divergences. Detached (the
  /// default) the serve path pays one branch, like set_telemetry.
  void set_variant_harness(VariantHarness* harness) { variant_harness_ = harness; }
  VariantHarness* variant_harness() { return variant_harness_; }

 private:
  sqldb::Database db_;
  vfs::Vfs fs_;
  std::unique_ptr<minijs::Interpreter> interp_;
  obs::Telemetry* telemetry_ = nullptr;
  VariantHarness* variant_harness_ = nullptr;
  bool wall_clock_metrics_ = false;
  std::uint64_t requests_served_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace edgstr::runtime
