#include "crdt/wire.h"

namespace edgstr::crdt {

json::Value doc_versions_to_json(const DocVersions& versions) {
  json::Object out;
  // Keys come from a std::map, so they are unique: append, never set.
  for (const auto& [doc, version] : versions) out.append(doc, version_to_json(version));
  return json::Value(std::move(out));
}

DocVersions doc_versions_from_json(const json::Value& v) {
  DocVersions out;
  for (const auto& [doc, version] : v.as_object()) out[doc] = version_from_json(version);
  return out;
}

std::size_t SyncMessage::op_count() const {
  std::size_t total = 0;
  for (const auto& [doc, doc_ops] : ops) total += doc_ops.size();
  return total;
}

namespace {

/// Encodes one doc's ops as maximal same-origin runs with contiguous seqs.
json::Value encode_runs(const std::vector<Op>& ops) {
  json::Array runs;
  std::size_t i = 0;
  while (i < ops.size()) {
    const std::string& origin = ops[i].origin;
    // Extend the run while origin matches and seqs stay contiguous.
    std::size_t j = i + 1;
    while (j < ops.size() && ops[j].origin == origin && ops[j].seq == ops[j - 1].seq + 1) ++j;

    json::Array counters;  // [c0, delta, delta, ...]
    json::Array payloads;
    counters.reserve(j - i);
    payloads.reserve(j - i);
    bool stamps_match_origin = true;
    double prev_counter = 0;
    for (std::size_t k = i; k < j; ++k) {
      const double counter = double(ops[k].stamp.counter);
      const double encoded = (k == i) ? counter : counter - prev_counter;
      prev_counter = counter;
      counters.push_back(json::Value(encoded));
      payloads.push_back(ops[k].payload());  // the one copy per hop: into the wire
      stamps_match_origin = stamps_match_origin && ops[k].stamp.replica == origin;
    }
    json::Object run;
    run.reserve(stamps_match_origin ? 4 : 5);
    run.append("o", json::Value(origin));
    run.append("s", json::Value(double(ops[i].seq)));
    run.append("c", json::Value(std::move(counters)));
    run.append("p", json::Value(std::move(payloads)));
    if (!stamps_match_origin) {
      // Never produced by OpLog::make_local; kept so the codec stays total.
      json::Array replicas;
      for (std::size_t k = i; k < j; ++k) replicas.push_back(ops[k].stamp.replica);
      run.append("r", json::Value(std::move(replicas)));
    }
    runs.push_back(json::Value(std::move(run)));
    i = j;
  }
  return json::Value(std::move(runs));
}

/// Doubles that survive an exact round-trip through uint64 sequence
/// arithmetic. 2^53 is the integer-precision limit; anything past it (or
/// negative, or fractional) is an attack or a corrupted frame, not a seq.
bool valid_seq(double v) {
  return v >= 1 && v <= 9007199254740992.0 && v == double(std::uint64_t(v));
}

/// A value out of the wire being decoded: moved out of a wire the decoder
/// owns, copied out of one it only reads.
json::Value take(const json::Value& v) { return v; }
json::Value take(json::Value& v) { return std::move(v); }

/// Decodes op runs. `Wire` is json::Value (payloads move out) or
/// const json::Value (payloads are copied).
template <class Wire>
std::vector<Op> decode_runs(Wire& runs) {
  std::vector<Op> ops;
  // Where each origin's next run must resume: the encoder emits per-origin
  // seqs gap-free across a message, so anything else is malformed.
  std::map<std::string, std::uint64_t> next_seq;
  for (auto& run : runs.as_array()) {
    const json::Value* o = run.find("o");
    const json::Value* s = run.find("s");
    const json::Value* c = run.find("c");
    auto* p = run.find("p");
    if (!o || !s || !c || !p) throw WireError("wire: truncated run header");
    const std::string& origin = o->as_string();
    if (!valid_seq(s->as_number())) throw WireError("wire: bad first seq in run");
    const std::uint64_t first_seq = std::uint64_t(s->as_number());
    const json::Array& counters = c->as_array();
    auto& payloads = p->as_array();
    if (counters.size() != payloads.size()) {
      throw WireError("wire: run length mismatch (" + std::to_string(counters.size()) +
                      " counters, " + std::to_string(payloads.size()) + " payloads)");
    }
    const json::Value* replicas = run.find("r");
    if (replicas && replicas->as_array().size() != payloads.size()) {
      throw WireError("wire: run length mismatch (stamp replicas)");
    }
    const auto expected = next_seq.find(origin);
    if (expected != next_seq.end() && first_seq != expected->second) {
      throw WireError("wire: non-gap-free seq runs for origin '" + origin + "'");
    }
    ops.reserve(ops.size() + payloads.size());
    double counter = 0;
    for (std::size_t k = 0; k < payloads.size(); ++k) {
      counter += counters[k].as_number();  // c0 then deltas
      if (!(counter >= 0 && counter <= 9007199254740992.0)) {
        throw WireError("wire: lamport counter out of range");
      }
      Op op;
      op.origin = origin;
      op.seq = first_seq + k;
      op.stamp.counter = std::uint64_t(counter);
      op.stamp.replica = replicas ? (*replicas)[k].as_string() : origin;
      op.set_payload(take(payloads[k]));
      ops.push_back(std::move(op));
    }
    next_seq[origin] = first_seq + payloads.size();
  }
  return ops;
}

/// Digest payload: one shared origin table, one seq row per doc unit.
/// Rows after the first are delta-encoded against the previous row, the
/// same trick op runs use for Lamport counters.
void encode_digest(const DocVersions& versions, json::Object& out) {
  std::map<std::string, std::size_t> origin_index;
  json::Array origins;
  for (const auto& [doc, vector] : versions) {
    for (const auto& [origin, seq] : vector) {
      (void)seq;
      if (origin_index.emplace(origin, origin_index.size()).second) {
        origins.push_back(json::Value(origin));
      }
    }
  }
  json::Object rows;
  std::vector<double> prev(origin_index.size(), 0.0);
  for (const auto& [doc, vector] : versions) {
    std::vector<double> row(origin_index.size(), 0.0);
    for (const auto& [origin, seq] : vector) row[origin_index[origin]] = double(seq);
    json::Array encoded;
    for (std::size_t i = 0; i < row.size(); ++i) encoded.push_back(json::Value(row[i] - prev[i]));
    prev = row;
    rows.append(doc, json::Value(std::move(encoded)));  // map keys: unique
  }
  out.append("o", json::Value(std::move(origins)));
  out.append("g", json::Value(std::move(rows)));
}

DocVersions decode_digest(const json::Value& wire) {
  const json::Array& origins = wire["o"].as_array();
  std::vector<std::string> table;
  table.reserve(origins.size());
  for (const json::Value& origin : origins) table.push_back(origin.as_string());
  DocVersions out;
  std::vector<double> prev(table.size(), 0.0);
  for (const auto& [doc, row] : wire["g"].as_object()) {
    const json::Array& deltas = row.as_array();
    if (deltas.size() != table.size()) {
      throw WireError("wire: digest row length mismatch for doc '" + doc + "'");
    }
    VersionVector vector;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      const double seq = prev[i] + deltas[i].as_number();
      if (!(seq >= 0 && seq <= 9007199254740992.0 && seq == double(std::uint64_t(seq)))) {
        throw WireError("wire: digest seq out of range for origin '" + table[i] + "'");
      }
      prev[i] = seq;
      if (seq > 0) vector[table[i]] = std::uint64_t(seq);
    }
    out[doc] = std::move(vector);
  }
  return out;
}

}  // namespace

json::Value encode_message(const SyncMessage& message) {
  // Every key is written once (doc keys come from std::maps), so the
  // builders append instead of set()'s duplicate scan.
  json::Object out;
  out.append("from", json::Value(message.from));
  if (message.kind == SyncKind::kDigest) {
    out.append("k", json::Value("dig"));
    encode_digest(message.versions, out);
    if (message.rejoin) out.append("rj", json::Value(true));
    return json::Value(std::move(out));
  }
  if (message.kind == SyncKind::kBootstrap) {
    out.append("k", json::Value("boot"));
    out.append("v", doc_versions_to_json(message.versions));
    out.append("b", message.bootstrap);
    if (message.rejoin) out.append("rj", json::Value(true));
    return json::Value(std::move(out));
  }
  if (message.kind == SyncKind::kSnapshot) {
    out.append("k", json::Value("snap"));
    out.append("v", doc_versions_to_json(message.versions));
    out.append("sn", message.snapshot);
    json::Object docs;
    for (const auto& [doc, doc_ops] : message.ops) {
      if (!doc_ops.empty()) docs.append(doc, encode_runs(doc_ops));
    }
    if (!docs.empty()) out.append("d", json::Value(std::move(docs)));
    if (message.rejoin) out.append("rj", json::Value(true));
    return json::Value(std::move(out));
  }
  // An absent doc decodes as an empty vector, so empty ones are skipped.
  json::Object versions;
  for (const auto& [doc, version] : message.versions) {
    if (!version.empty()) versions.append(doc, version_to_json(version));
  }
  out.append("v", json::Value(std::move(versions)));
  json::Object docs;
  for (const auto& [doc, doc_ops] : message.ops) {
    if (!doc_ops.empty()) docs.append(doc, encode_runs(doc_ops));
  }
  if (!docs.empty()) out.append("d", json::Value(std::move(docs)));
  if (message.truncated) out.append("t", json::Value(true));
  if (message.rejoin) out.append("rj", json::Value(true));
  return json::Value(std::move(out));
}

namespace {

template <class Wire>
SyncMessage decode(Wire& wire) {
  try {
    SyncMessage out;
    out.from = wire["from"].as_string();
    const json::Value* kind = wire.find("k");
    if (kind) {
      const std::string& k = kind->as_string();
      // A kind-tagged message carrying another kind's payload is corrupt
      // or hostile (digest-kind confusion): reject before touching it.
      if (k == "dig") {
        if (wire.find("d") || wire.find("b") || wire.find("sn")) {
          throw WireError("wire: digest carrying a payload");
        }
        out.kind = SyncKind::kDigest;
        out.versions = decode_digest(wire);
        if (const json::Value* rejoin = wire.find("rj")) out.rejoin = rejoin->as_bool();
        return out;
      }
      if (k == "boot") {
        if (wire.find("d") || wire.find("sn")) {
          throw WireError("wire: bootstrap carrying another kind's payload");
        }
        out.kind = SyncKind::kBootstrap;
        out.versions = doc_versions_from_json(wire["v"]);
        out.bootstrap = take(wire.as_object().at("b"));
        if (!out.bootstrap.is_object()) throw WireError("wire: bootstrap state must be an object");
        if (const json::Value* rejoin = wire.find("rj")) out.rejoin = rejoin->as_bool();
        return out;
      }
      if (k == "snap") {
        if (wire.find("b")) throw WireError("wire: snapshot carrying a bootstrap payload");
        out.kind = SyncKind::kSnapshot;
        out.versions = doc_versions_from_json(wire["v"]);
        out.snapshot = take(wire.as_object().at("sn"));
        if (!out.snapshot.is_object()) throw WireError("wire: snapshot payload must be an object");
        // Structural validation up front: every per-doc entry must look like
        // a crdt::Snapshot encoding. Content digests are verified at install.
        for (const auto& [doc, snap] : out.snapshot.as_object()) {
          if (!snap.is_object() || !snap.find("state") || !snap.find("v") ||
              !snap.find("lam") || !snap.find("dig")) {
            throw WireError("wire: malformed snapshot for doc '" + doc + "'");
          }
          if (!(*snap.find("v")).is_object()) {
            throw WireError("wire: snapshot version must be an object for doc '" + doc + "'");
          }
        }
        if (auto* docs = wire.find("d")) {
          for (auto& [doc, runs] : docs->as_object()) out.ops[doc] = decode_runs(runs);
        }
        if (const json::Value* rejoin = wire.find("rj")) out.rejoin = rejoin->as_bool();
        return out;
      }
      throw WireError("wire: unknown message kind '" + k + "'");
    }
    if (wire.find("b") || wire.find("g") || wire.find("sn")) {
      throw WireError("wire: ops message carrying digest/bootstrap fields");
    }
    out.versions = doc_versions_from_json(wire["v"]);
    if (auto* docs = wire.find("d")) {
      for (auto& [doc, runs] : docs->as_object()) out.ops[doc] = decode_runs(runs);
    }
    if (const json::Value* truncated = wire.find("t")) out.truncated = truncated->as_bool();
    if (const json::Value* rejoin = wire.find("rj")) out.rejoin = rejoin->as_bool();
    return out;
  } catch (const WireError&) {
    throw;
  } catch (const std::logic_error& e) {
    // json::Value type/missing-key errors (out_of_range included) become
    // one uniform, catchable rejection.
    throw WireError(std::string("wire: malformed sync message: ") + e.what());
  }
}

}  // namespace

SyncMessage decode_message(const json::Value& wire) { return decode(wire); }

SyncMessage decode_message(json::Value&& wire) { return decode(wire); }

}  // namespace edgstr::crdt
