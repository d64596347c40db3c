// Online multi-variant execution: run the same extracted service as
// several engine variants behind one proxy and cross-check every request.
//
// PR 5 proved the fast engine (static resolver + CoW snapshots) byte-
// equivalent to the legacy tree-walker offline (`EngineDifferentialTest`
// replays the analysis pipeline under every engine config). This harness
// promotes that guard into production. Before the primary serves a
// request, each shadow variant is brought to the primary's live state and
// RNG and replays the request; after the primary serves, the harness
// compares
//
//   * responses  — status, failure flag, body — shadow vs primary, and
//   * RW-logs    — the instrumented read/write event sequence — shadow
//                  vs shadow (the primary serves hook-free; the first
//                  shadow's log is the reference),
//
// surfacing any disagreement as a `Divergence` carrying the offending
// request and the first differing RW-log event. The sim turns these into
// the `variant-agreement` invariant; deployments export them as
// `variant.divergence.*` metrics.
//
// A shadow never tracks the primary's mutations (requests, CRDT merges,
// compaction) as they happen; it syncs from the primary's live state at
// every check instead, so the comparison stays exact even mid-sync. The
// sync copies only what differs: tables and files whose process-wide
// change stamp differs from the shadow's (util::next_epoch), and globals
// whose content digest differs. It costs one stamp compare per table and
// file, a copy of each one that differs, and one digest walk of every
// global per engine — never a serialization of the whole state.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/service_runtime.h"
#include "trace/rwlog.h"

namespace edgstr::runtime {

/// One engine variant under comparison.
struct VariantSpec {
  std::string name;  ///< metrics label, e.g. "legacy"
  minijs::InterpreterConfig config;
  /// Test-only hook, run against the shadow after every sync from the
  /// primary (so it survives the sync). Used to plant deliberate semantic
  /// faults for divergence-detection tests; never set in production.
  std::function<void(ServiceRuntime&)> test_fault;
};

/// One observed disagreement between variants.
struct Divergence {
  std::string variant;     ///< which shadow disagreed
  std::string kind;        ///< "response" or "rwlog"
  http::HttpRequest request;  ///< the offending request
  std::string detail;      ///< first differing field / RW-log event delta
};

class VariantHarness {
 public:
  /// Builds one shadow runtime per spec from the same service source the
  /// primary runs. Shadows execute hooked (RW collection) but emit no
  /// telemetry of their own — deterministic metrics snapshots must not
  /// see shadow interpreter steps.
  VariantHarness(const std::string& source, std::vector<VariantSpec> variants);

  /// Before `primary` serves `request`: syncs every shadow to the
  /// primary's live state and RNG, plants the test fault, and replays the
  /// request with RW hooks.
  void replay(ServiceRuntime& primary, const http::HttpRequest& request);
  /// After the primary served: compares the replays of the last replay()
  /// with the primary's result. Returns the number of new divergences.
  std::size_t check(const http::HttpRequest& request, const ExecutionResult& primary);

  const std::vector<Divergence>& divergences() const { return divergences_; }
  std::uint64_t checks() const { return checks_; }
  std::size_t variants() const { return shadows_.size(); }

 private:
  struct Shadow {
    VariantSpec spec;
    std::unique_ptr<ServiceRuntime> runtime;
    trace::RwCollector log;  ///< the last replay's RW-log
    ExecutionResult result;  ///< the last replay's result
  };

  /// One of the primary's non-callable globals, digested once per check.
  struct PrimaryGlobal {
    util::Symbol sym;
    const minijs::JsValue* value;
    std::uint64_t digest;
    std::optional<json::Value> dump;  ///< made once, by the first shadow that needs it
  };

  /// Makes `shadow`'s non-callable globals equal to primary_globals_:
  /// erases the extras and reinstalls, as a deep copy, each global whose
  /// digest differs (no JsValue is shared across interpreters).
  void sync_globals(minijs::Interpreter& shadow);

  std::vector<Shadow> shadows_;
  std::vector<PrimaryGlobal> primary_globals_;  ///< sorted by symbol
  std::vector<Divergence> divergences_;
  std::uint64_t checks_ = 0;
};

}  // namespace edgstr::runtime
