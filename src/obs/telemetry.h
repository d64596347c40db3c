// Shared telemetry context for one deployment: the span tracer, a metrics
// registry for request-path histograms, and the op-provenance table that
// ties CRDT ops back to the client trace that produced them.
//
// Ownership: a deployment owns one Telemetry and hands non-owning pointers
// to its proxies, replica states, and replication graph. Everything here is
// single-threaded (the simulation runs on one event loop) and
// deterministic: ids from counters, timestamps from the netsim clock.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "util/metrics.h"

namespace edgstr::obs {

class Telemetry {
 public:
  explicit Telemetry(const netsim::SimClock* clock = nullptr) : tracer_(clock) {}
  void bind_clock(const netsim::SimClock* clock) { tracer_.bind_clock(clock); }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Simulated now from the bound clock (0 when unbound) — the timestamp
  /// call sites stamp time-series samples and flight events with.
  double now() const { return tracer_.now(); }

  // --- optional planes -----------------------------------------------------
  //
  // Both are non-owning and default to null; call sites guard every record
  // on the pointer, so a deployment that never attaches them pays nothing
  // and its exports stay byte-identical to pre-capture builds.

  void set_timeseries(TimeSeries* series) { timeseries_ = series; }
  TimeSeries* timeseries() const { return timeseries_; }

  void set_flight_recorder(FlightRecorder* flight) { flight_ = flight; }
  FlightRecorder* flight_recorder() const { return flight_; }

  /// Request-path metrics (`runtime.*`); the replication plane keeps its
  /// own `sync.*` registry on the graph — exporters merge the two.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

  // --- op provenance -------------------------------------------------------
  //
  // The proxy sets the active context around the post-execution
  // record_local() harvest; ReplicaState tags every op it mints under that
  // context. Ops keep their (doc, origin, seq) identity across relays, so
  // a lookup works no matter how many hops the op traveled.

  void set_active_context(const TraceContext& ctx) { active_ = ctx; }
  void clear_active_context() { active_ = {}; }
  const TraceContext& active_context() const { return active_; }

  /// Tags op (doc, origin, seq) with the active trace; no-op without one.
  void tag_op(const std::string& doc, const std::string& origin, std::uint64_t seq);

  /// Trace that produced the op, or 0 when untagged (background harvest,
  /// bootstrap restore, or telemetry attached after the op was minted).
  std::uint64_t op_trace(const std::string& doc, const std::string& origin,
                         std::uint64_t seq) const;

  // --- delivery accounting -------------------------------------------------

  /// Records that `host` applied ops belonging to `trace_id`.
  void note_delivery(const std::string& host, std::uint64_t trace_id);
  /// True when `host` has applied ops of the trace.
  bool delivered(std::uint64_t trace_id, const std::string& host) const;
  /// Hosts that applied ops of the trace (empty set when none).
  std::set<std::string> delivered_hosts(std::uint64_t trace_id) const;

  void clear();

 private:
  /// (doc, origin, seq). The map's comparator is transparent, so lookups
  /// by a string_view key allocate nothing.
  using OpKey = std::tuple<std::string, std::string, std::uint64_t>;
  using OpKeyView = std::tuple<std::string_view, std::string_view, std::uint64_t>;

  Tracer tracer_;
  util::MetricsRegistry metrics_;
  TimeSeries* timeseries_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  TraceContext active_;
  std::map<OpKey, std::uint64_t, std::less<>> op_trace_;
  std::map<std::uint64_t, std::set<std::string>> delivered_;
};

}  // namespace edgstr::obs
