// Batched wire encoding for sync messages.
//
// The seed shipped one self-describing JSON object per Op —
//   {"origin":"edge0","seq":12,"stamp":{"c":34,"r":"edge0"},"payload":...}
// — repeating the origin and stamp structure for every op. A sync message
// instead groups ops into per-(doc, origin) runs that share one header:
//
//   {"from": "<sender>",
//    "v":    {"<doc>": {"<origin>": seq, ...}, ...},      // sender versions
//    "d":    {"<doc>": [run, run, ...], ...}}             // omitted if empty
//
//   run = {"o": "<origin>",          // shared by every op in the run
//          "s": <first seq>,         // seqs are contiguous: s, s+1, ...
//          "c": [c0, d1, d2, ...],   // delta-encoded Lamport counters
//          "p": [payload, ...]}      // one payload per op
//
// Within a run the per-origin sequence numbers are contiguous (OpLog
// enforces gap-free recording and compaction only trims prefixes), so only
// the first seq is carried; Lamport counters are strictly increasing per
// origin, so deltas stay small. A local op's stamp replica always equals
// its origin (OpLog::make_local), so it is not carried at all; the encoder
// verifies this and falls back to an explicit "r" array if it ever breaks.
//
// This is the only sync encoding. Against the seed's per-op format on
// identical messages it saved 19.2-27.4 % of op bytes per app (frozen in
// EXPERIMENTS.md, "Retired A/B results").
//
// Besides op-bearing messages the wire carries two more kinds, selected by
// a "k" field (absent = ops):
//
//   digest    {"k":"dig", "from":..., "o":[origin,...], "g":{doc:[row]}}
//             A compact advertisement of the sender's per-doc version
//             vectors: one shared origin table for the whole message (the
//             same replica ids repeat across doc units), then per doc a row
//             of seqs aligned to that table. Like op runs, rows after the
//             first are delta-encoded against the previous row; a zero
//             (after delta reconstruction) means "origin absent here".
//   bootstrap {"k":"boot", "from":..., "v":..., "b":<full CRDT state>}
//             Full-state transfer for a peer behind the sender's
//             compaction horizon (rejoin only).
//   snapshot  {"k":"snap", "from":..., "v":..., "sn":{doc:<snapshot>},
//              "d":{doc:[run,...]}}
//             Per-doc state snapshot (crdt::Snapshot encoding: observable
//             state without the op log) plus optional tail-op runs past
//             each snapshot's covered version. The cheap bootstrap: a
//             joining or rebooted replica installs the snapshots and
//             applies the tail instead of replaying full history.
//
// Ops messages additionally carry "t" (truncated: the delta was split at a
// byte budget; the rest follows in later rounds) and "rj" (this message is
// a rejoin response addressed to a recovering endpoint).
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "crdt/change.h"
#include "json/value.h"

namespace edgstr::crdt {

/// Thrown by decode_message on malformed wire payloads: truncated run
/// headers, mismatched run lengths, non-integral or out-of-range sequence
/// numbers, and same-origin runs that are not gap-free. Decoding validates
/// structure up front so hostile input is rejected with this error instead
/// of corrupting an op log (or worse) deep inside apply.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Version vector per named doc unit, as carried in sync messages.
using DocVersions = std::map<std::string, VersionVector>;

json::Value doc_versions_to_json(const DocVersions& versions);
DocVersions doc_versions_from_json(const json::Value& v);

/// What a sync message is: an op delta, a version-vector digest, a
/// full-state bootstrap transfer, or a snapshot + tail-ops bootstrap.
enum class SyncKind { kOps, kDigest, kBootstrap, kSnapshot };

/// One sync exchange. For kOps: the sender's versions plus, per doc unit,
/// the ops the receiver lacks (doc units with no pending ops are simply
/// absent). For kDigest: `versions` alone — the sender's advertisement that
/// the responder answers with exactly the missing ranges. For kBootstrap:
/// `bootstrap` carries the sender's full CRDT state.
struct SyncMessage {
  SyncKind kind = SyncKind::kOps;
  std::string from;                          ///< sender endpoint id
  DocVersions versions;                      ///< sender's version per doc unit
  std::map<std::string, std::vector<Op>> ops;  ///< doc unit -> pending ops
  /// kOps only: the delta was cut at a byte budget; `versions` is capped to
  /// what the included ops actually deliver, and the remainder rides later
  /// rounds (the receiver's next digest resumes the range automatically).
  bool truncated = false;
  /// Response addressed to a *recovering* endpoint (rejoin delta or
  /// bootstrap); regular endpoints drop it, recovering ones complete their
  /// rejoin when the final (non-truncated) piece lands.
  bool rejoin = false;
  /// kBootstrap only: full CRDT state of every doc unit.
  json::Value bootstrap;
  /// kSnapshot only: per-doc crdt::Snapshot encodings (doc -> snapshot);
  /// `ops` carries the tail past each snapshot's covered version.
  json::Value snapshot;

  std::size_t op_count() const;
};

/// Batched run-length encoding.
json::Value encode_message(const SyncMessage& message);
/// Decodes a wire message; throws WireError when it is malformed. The
/// rvalue overload moves payloads (and bootstrap/snapshot state) out of
/// `wire` instead of copying them.
SyncMessage decode_message(const json::Value& wire);
SyncMessage decode_message(json::Value&& wire);

}  // namespace edgstr::crdt
