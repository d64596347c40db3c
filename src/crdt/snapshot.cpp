#include "crdt/snapshot.h"

#include <stdexcept>

namespace edgstr::crdt {

namespace {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

std::string Snapshot::content_digest(const json::Value& state) {
  return hex64(state.fnv1a());  // == fnv1a(state.dump()), without the text
}

json::Value Snapshot::to_json() const {
  return json::Value::object({{"state", state},
                              {"v", version_to_json(covered)},
                              {"lam", static_cast<double>(lamport)},
                              {"dig", digest.empty() ? content_digest(state) : digest}});
}

Snapshot Snapshot::from_json(const json::Value& v) {
  Snapshot snap;
  snap.state = v["state"];
  snap.covered = version_from_json(v["v"]);
  snap.lamport = static_cast<std::uint64_t>(v["lam"].as_number());
  snap.digest = v["dig"].as_string();
  if (snap.digest != content_digest(snap.state)) {
    throw std::runtime_error("Snapshot: content digest mismatch (corrupt snapshot)");
  }
  return snap;
}

}  // namespace edgstr::crdt
