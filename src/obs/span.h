// Causal span tracing for the simulated deployment stack.
//
// A TraceContext (trace id + parent span id) is minted per client request
// and rides through the request path, the replication plane, and remote
// CRDT applies, so one trace links a write at an edge to the sync rounds
// that propagated it to the cloud and its siblings. All timestamps come
// from the deterministic netsim clock and all ids from monotone counters,
// so two runs of the same seed produce structurally identical traces —
// there is no wall-clock anywhere in this layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netsim/clock.h"

namespace edgstr::obs {

/// Propagated causal identity: which trace an event belongs to and which
/// span caused it. trace_id 0 means "no active trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< parent span within the trace (0 = root)

  bool valid() const { return trace_id != 0; }
  bool operator==(const TraceContext& other) const {
    return trace_id == other.trace_id && span_id == other.span_id;
  }
};

/// One timed operation on one simulated host. `links` names *other* traces
/// this span causally touched (e.g. a sync message carrying ops that were
/// written under those traces) — the cross-trace arrows of the span tree.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t id = 0;         ///< unique within the tracer, 1-based
  std::uint64_t parent_id = 0;  ///< 0 = root span of its trace
  std::string name;
  std::string category;  ///< "request" | "sync" | ... (Chrome trace cat)
  std::string host;      ///< simulated host the work ran on
  double start = 0;      ///< simulated seconds
  double end = -1;       ///< < start means "never ended" (dropped in flight)
  std::vector<std::pair<std::string, std::string>> args;
  std::vector<std::uint64_t> links;  ///< trace ids causally carried by this span

  double duration() const { return end < start ? 0.0 : end - start; }
};

/// Handle to a span inside a Tracer; 0 = no span.
using SpanId = std::size_t;
inline constexpr SpanId kNoSpan = 0;

/// Append-only span recorder on the simulation clock.
class Tracer {
 public:
  explicit Tracer(const netsim::SimClock* clock = nullptr) : clock_(clock) {}
  void bind_clock(const netsim::SimClock* clock) { clock_ = clock; }

  /// Opens a span starting now. With a valid `parent`, the span joins that
  /// trace as a child; otherwise it roots a brand-new trace.
  SpanId begin_span(std::string name, std::string category, std::string host,
                    const TraceContext& parent = {});

  /// Context for minting children of an open (or closed) span.
  TraceContext context(SpanId id) const;

  /// Extends the span's end to now (max semantics: duplicate deliveries or
  /// straggler callbacks only ever lengthen a span, deterministically).
  void end_span(SpanId id);

  void add_arg(SpanId id, std::string key, std::string value);
  /// Records a causal cross-trace link (deduplicated, order-preserving).
  void link(SpanId id, std::uint64_t trace_id);

  const Span& span(SpanId id) const { return spans_.at(id - 1); }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }
  void clear();

  double now() const { return clock_ ? clock_->now() : 0.0; }

 private:
  const netsim::SimClock* clock_;
  std::uint64_t next_trace_ = 1;
  std::vector<Span> spans_;
};

}  // namespace edgstr::obs
