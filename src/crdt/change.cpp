#include "crdt/change.h"

#include <algorithm>
#include <stdexcept>

namespace edgstr::crdt {

const json::Value& Op::payload() const {
  static const json::Value kNull;
  return payload_ ? payload_->value : kNull;
}

void Op::set_payload(json::Value payload) {
  auto body = std::make_shared<Payload>();
  body->value = std::move(payload);
  payload_ = std::move(body);
}

json::Value Op::to_json() const {
  return json::Value::object({{"origin", origin},
                              {"seq", static_cast<double>(seq)},
                              {"stamp", stamp.to_json()},
                              {"payload", payload()}});
}

std::uint64_t Op::wire_size() const {
  // to_json() is {"origin":O,"seq":N,"stamp":{"c":C,"r":R},"payload":P}.
  static constexpr std::size_t kFraming =
      sizeof(R"({"origin":,"seq":,"stamp":{"c":,"r":},"payload":})") - 1;
  std::size_t payload_size = 4;  // "null"
  if (payload_) {
    payload_size = payload_->wire_size.load();
    if (payload_size == 0) {  // no JSON value serializes to 0 bytes
      payload_size = payload_->value.wire_size();
      payload_->wire_size.store(payload_size);
    }
  }
  return kFraming + json::string_wire_size(origin) +
         json::number_wire_size(static_cast<double>(seq)) +
         json::number_wire_size(static_cast<double>(stamp.counter)) +
         json::string_wire_size(stamp.replica) + payload_size;
}

Op Op::from_json(const json::Value& v) {
  Op op;
  op.origin = v["origin"].as_string();
  op.seq = static_cast<std::uint64_t>(v["seq"].as_number());
  op.stamp = Stamp::from_json(v["stamp"]);
  op.set_payload(v["payload"]);
  return op;
}

json::Value version_to_json(const VersionVector& version) {
  json::Object obj;
  obj.reserve(version.size());
  // Keys come from a std::map, so they are unique: append, never set.
  for (const auto& [replica, seq] : version) obj.append(replica, static_cast<double>(seq));
  return json::Value(std::move(obj));
}

VersionVector version_from_json(const json::Value& v) {
  VersionVector version;
  for (const auto& [replica, seq] : v.as_object()) {
    version[replica] = static_cast<std::uint64_t>(seq.as_number());
  }
  return version;
}

Op OpLog::make_local(json::Value payload) {
  Op op;
  op.origin = replica_;
  op.seq = version_[replica_] + 1;
  op.stamp = Stamp{++lamport_, replica_};
  op.set_payload(std::move(payload));
  return op;
}

bool OpLog::seen(const std::string& origin, std::uint64_t seq) const {
  auto it = version_.find(origin);
  return it != version_.end() && seq <= it->second;
}

bool OpLog::record(const Op& op) {
  const std::uint64_t expected = version_[op.origin] + 1;
  if (op.seq < expected) return false;  // duplicate
  if (op.seq > expected) {
    // Ops from one origin are generated and shipped in order; a gap means
    // the transport reordered within a single batch, which the sync engine
    // never does. Fail loudly rather than corrupt causality.
    throw std::logic_error("OpLog: out-of-order op from " + op.origin + " (seq " +
                           std::to_string(op.seq) + ", expected " + std::to_string(expected) + ")");
  }
  version_[op.origin] = op.seq;
  by_origin_[op.origin].push_back(ops_.size());
  ops_.push_back(op);
  observe(op.stamp);
  return true;
}

void OpLog::observe(const Stamp& stamp) {
  if (stamp.counter > lamport_) lamport_ = stamp.counter;
}

void OpLog::reset_to(const VersionVector& covered, std::uint64_t lamport) {
  ops_.clear();
  by_origin_.clear();
  version_ = covered;
  floor_ = covered;
  if (lamport > lamport_) lamport_ = lamport;
}

VersionVector version_min(const VersionVector& a, const VersionVector& b) {
  VersionVector out;
  for (const auto& [origin, seq] : a) {
    auto it = b.find(origin);
    out[origin] = it == b.end() ? 0 : std::min(seq, it->second);
  }
  // Components present only in b floor to 0 and can be omitted entirely.
  return out;
}

std::size_t OpLog::compact(const VersionVector& acked) {
  const std::size_t before = ops_.size();
  ops_.erase(std::remove_if(ops_.begin(), ops_.end(),
                            [&](const Op& op) {
                              auto it = acked.find(op.origin);
                              return it != acked.end() && op.seq <= it->second;
                            }),
             ops_.end());
  for (const auto& [origin, seq] : acked) {
    auto it = floor_.find(origin);
    if (it == floor_.end() || it->second < seq) floor_[origin] = seq;
  }
  if (ops_.size() != before) rebuild_index();
  return before - ops_.size();
}

bool OpLog::can_serve(const VersionVector& known) const {
  for (const auto& [origin, compacted_to] : floor_) {
    auto it = known.find(origin);
    const std::uint64_t has = it == known.end() ? 0 : it->second;
    if (has < compacted_to) return false;  // would need compacted ops
  }
  return true;
}

std::vector<Op> OpLog::changes_since(const VersionVector& known) const {
  // Each origin's positions hold ascending seqs, so what the peer lacks is
  // a suffix of them; the suffixes merged by position are the log order.
  std::vector<std::size_t> picks;
  std::size_t origins_picked = 0;
  for (const auto& [origin, positions] : by_origin_) {
    auto it = known.find(origin);
    const std::uint64_t have = it == known.end() ? 0 : it->second;
    const auto first = std::partition_point(
        positions.begin(), positions.end(),
        [&](std::size_t pos) { return ops_[pos].seq <= have; });
    if (first == positions.end()) continue;
    picks.insert(picks.end(), first, positions.end());
    ++origins_picked;
  }
  if (origins_picked > 1) std::sort(picks.begin(), picks.end());
  std::vector<Op> out;
  out.reserve(picks.size());
  for (const std::size_t pos : picks) out.push_back(ops_[pos]);
  return out;
}

void OpLog::rebuild_index() {
  by_origin_.clear();
  for (std::size_t pos = 0; pos < ops_.size(); ++pos) by_origin_[ops_[pos].origin].push_back(pos);
}

json::Value OpLog::to_json() const {
  json::Array ops;
  ops.reserve(ops_.size());
  for (const Op& op : ops_) ops.push_back(op.to_json());
  // version and floor are carried explicitly: after compaction the retained
  // ops alone no longer determine either (a restored log must keep refusing
  // to serve peers behind the compaction horizon).
  return json::Value::object({{"replica", replica_},
                              {"ops", json::Value(std::move(ops))},
                              {"version", version_to_json(version_)},
                              {"floor", version_to_json(floor_)},
                              {"lamport", static_cast<double>(lamport_)}});
}

void OpLog::restore(const json::Value& v) {
  // replica_ is deliberately NOT restored: a bootstrap payload comes from a
  // peer, and adopting its identity would make this log mint ops under the
  // peer's origin. The serialized "replica" field is provenance only.
  lamport_ = static_cast<std::uint64_t>(v["lamport"].as_number());
  ops_.clear();
  by_origin_.clear();
  version_.clear();
  floor_.clear();
  for (const json::Value& op : v["ops"].as_array()) {
    Op parsed = Op::from_json(op);
    std::uint64_t& last = version_[parsed.origin];
    if (parsed.seq <= last) {
      // changes_since() binary-searches each origin's ops by seq.
      throw std::invalid_argument("OpLog::restore: ops of " + parsed.origin +
                                  " are not in ascending seq order");
    }
    last = parsed.seq;
    by_origin_[parsed.origin].push_back(ops_.size());
    ops_.push_back(std::move(parsed));
  }
  // Older serializations carried only the ops; derive what we can.
  if (const json::Value* version = v.find("version")) version_ = version_from_json(*version);
  if (const json::Value* floor = v.find("floor")) floor_ = version_from_json(*floor);
}

}  // namespace edgstr::crdt
