#include "runtime/sync_link.h"

#include <stdexcept>

namespace edgstr::runtime {

namespace {
constexpr std::uint64_t kFramingOverheadBytes = 64;
}

SyncLink::SyncLink(netsim::Network& network, std::string endpoint_a, std::string endpoint_b,
                   util::MetricsRegistry* metrics)
    : network_(network), a_(std::move(endpoint_a)), b_(std::move(endpoint_b)), metrics_(metrics) {
  if (a_ == b_) throw std::invalid_argument("SyncLink: both ends are '" + a_ + "'");
}

const std::string& SyncLink::other_end(const std::string& endpoint) const {
  if (endpoint == a_) return b_;
  if (endpoint == b_) return a_;
  throw std::invalid_argument("SyncLink: '" + endpoint + "' is not an end of " + a_ + "<->" + b_);
}

BatchBudget& SyncLink::budget_from(const std::string& sender) {
  if (sender == a_) return budget_ab_;
  if (sender == b_) return budget_ba_;
  throw std::invalid_argument("SyncLink: '" + sender + "' is not an end of " + a_ + "<->" + b_);
}

void SyncLink::begin_round() {
  const double now = network_.clock().now();
  const std::size_t losses = budget_ab_.begin_round(now) + budget_ba_.begin_round(now);
  if (losses && metrics_) metrics_->add("sync.batch.losses", double(losses));
}

std::uint64_t SyncLink::send(const std::string& from, const crdt::SyncMessage& message,
                             std::function<void(const crdt::SyncMessage&)> on_delivered,
                             const obs::TraceContext& parent) {
  const std::string& to = other_end(from);
  const json::Value wire = crdt::encode_message(message);
  const std::uint64_t bytes = wire.wire_size() + kFramingOverheadBytes;
  bytes_ += bytes;
  ++messages_;

  std::size_t op_count = 0;
  for (const auto& [doc, ops] : message.ops) op_count += ops.size();

  const bool carries_ops = message.kind == crdt::SyncKind::kOps;
  if (metrics_) {
    metrics_->add("sync.messages");
    metrics_->add("sync.bytes.wire", double(bytes));
    // Per-kind byte split: op traffic is reported apart from the
    // digest/bootstrap overhead.
    const char* kind = carries_ops                                   ? "ops"
                       : message.kind == crdt::SyncKind::kDigest ? "digest"
                                                                     : "bootstrap";
    metrics_->add(std::string("sync.bytes.wire.") + kind, double(bytes));
    if (carries_ops) {
      for (const auto& [doc, ops] : message.ops) {
        metrics_->add("sync.ops_shipped." + message.from + "." + doc, double(ops.size()));
        double op_bytes = 0;
        for (const crdt::Op& op : ops) op_bytes += double(op.wire_size());
        metrics_->add("sync.bytes.doc." + doc, op_bytes);
      }
      std::vector<double> batch_bounds(BatchBudget::ladder().begin(),
                                       BatchBudget::ladder().end());
      metrics_->observe("sync.batch.bytes", double(bytes), batch_bounds);
      if (message.truncated) metrics_->add("sync.batch.splits");
    }
  }

  // Only op-bearing sends feed the AIMD controller: digests are tiny and
  // constant-rate, so their fate says nothing about how much delta the
  // link can absorb.
  BatchBudget* budget = carries_ops ? &budget_from(from) : nullptr;
  if (budget) budget->on_send(network_.clock().now());

  obs::SpanId transit = obs::kNoSpan;
  if (telemetry_) {
    // The transit span covers send -> delivery; if the network drops the
    // message it stays zero-length at the send time. Its links name every
    // client trace whose ops ride in this message — the causal thread from
    // a write to the sync hop that moved it.
    transit = telemetry_->tracer().begin_span("sync.send", "sync", from, parent);
    obs::Tracer& tracer = telemetry_->tracer();
    tracer.add_arg(transit, "to", to);
    tracer.add_arg(transit, "bytes", std::to_string(bytes));
    tracer.add_arg(transit, "ops", std::to_string(op_count));
    for (const auto& [doc, ops] : message.ops) {
      for (const crdt::Op& op : ops) {
        tracer.link(transit, telemetry_->op_trace(doc, op.origin, op.seq));
      }
    }
  }

  // The *encoded* form is what travels: delivery decodes it at arrival
  // time, so every sync round exercises the full wire round-trip.
  network_.send(from, to, bytes,
                [this, wire, transit, budget, on_delivered = std::move(on_delivered)]() {
                  if (budget) budget->on_delivery(network_.clock().now());
                  if (telemetry_) telemetry_->tracer().end_span(transit);
                  on_delivered(crdt::decode_message(wire));
                });
  return bytes;
}

}  // namespace edgstr::runtime
