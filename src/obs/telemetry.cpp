#include "obs/telemetry.h"

namespace edgstr::obs {

void Telemetry::tag_op(const std::string& doc, const std::string& origin, std::uint64_t seq) {
  if (!active_.valid()) return;
  const OpKeyView key{doc, origin, seq};
  auto it = op_trace_.lower_bound(key);
  if (it == op_trace_.end() || op_trace_.key_comp()(key, it->first)) {
    it = op_trace_.emplace_hint(it, OpKey{doc, origin, seq}, 0);
  }
  it->second = active_.trace_id;
}

std::uint64_t Telemetry::op_trace(const std::string& doc, const std::string& origin,
                                  std::uint64_t seq) const {
  auto it = op_trace_.find(OpKeyView{doc, origin, seq});
  return it == op_trace_.end() ? 0 : it->second;
}

void Telemetry::note_delivery(const std::string& host, std::uint64_t trace_id) {
  if (trace_id == 0) return;
  delivered_[trace_id].insert(host);
}

bool Telemetry::delivered(std::uint64_t trace_id, const std::string& host) const {
  auto it = delivered_.find(trace_id);
  return it != delivered_.end() && it->second.count(host) > 0;
}

std::set<std::string> Telemetry::delivered_hosts(std::uint64_t trace_id) const {
  auto it = delivered_.find(trace_id);
  return it == delivered_.end() ? std::set<std::string>{} : it->second;
}

void Telemetry::clear() {
  tracer_.clear();
  metrics_.reset();
  active_ = {};
  op_trace_.clear();
  delivered_.clear();
}

}  // namespace edgstr::obs
