// Mutation fuzz over the sync wire codec: 10k seeded cases per run.
//
// Each case encodes a randomly generated message of a random kind (ops,
// digest, bootstrap), then corrupts the serialized text — truncation, bit
// flips, digit/length/seq corruption, slice deletion and duplication, and
// deliberate kind-confusion splices (a digest key grafted onto an ops
// frame, a bootstrap tag on a digest, ...). The contract under attack:
//
//   * if the mutant still parses as JSON, decode_message() either returns
//     a well-formed message (which must then survive an encode/decode
//     round-trip) or throws crdt::WireError — never anything else, never
//     UB (the suite runs under the ASan/UBSan CI matrix);
//   * unmutated frames of every kind decode back to what was encoded.
//
// Everything draws from one seeded Rng, so a failure report's case number
// plus the seed is a complete reproduction.
#include <gtest/gtest.h>

#include <string>

#include "crdt/wire.h"
#include "json/parse.h"
#include "util/rng.h"

namespace edgstr::crdt {
namespace {

constexpr std::uint64_t kFuzzSeed = 0xed65727ULL;  // stable across runs
constexpr int kCases = 10000;

// ---- generators ------------------------------------------------------------

DocVersions random_versions(util::Rng& rng) {
  DocVersions versions;
  const char* docs[] = {"tables", "files", "globals"};
  for (const char* doc : docs) {
    if (rng.chance(0.25)) continue;
    VersionVector v;
    const int origins = int(rng.uniform_int(0, 4));
    for (int o = 0; o < origins; ++o) {
      v["edge" + std::to_string(o)] = std::uint64_t(rng.uniform_int(1, 100000));
    }
    versions[doc] = std::move(v);
  }
  return versions;
}

SyncMessage random_ops_message(util::Rng& rng) {
  SyncMessage msg;
  msg.from = "replica" + std::to_string(rng.uniform_int(0, 5));
  const char* docs[] = {"tables", "files", "globals"};
  for (const char* doc : docs) {
    if (rng.chance(0.3)) continue;
    VersionVector version;
    std::vector<Op> ops;
    const int origins = int(rng.uniform_int(1, 3));
    std::uint64_t lamport = rng.uniform_int(1, 50);
    for (int o = 0; o < origins; ++o) {
      const std::string origin = "edge" + std::to_string(o);
      std::uint64_t seq = rng.uniform_int(1, 20);
      const int count = int(rng.uniform_int(0, 6));
      for (int i = 0; i < count; ++i) {
        Op op;
        op.origin = origin;
        op.seq = seq++;
        lamport += rng.uniform_int(1, 9);
        op.stamp.counter = lamport;
        op.stamp.replica = rng.chance(0.15) ? "relay" : origin;
        op.set_payload(json::Value::object(
            {{"key", rng.token(4)}, {"value", double(rng.uniform_int(0, 1000))}}));
        ops.push_back(std::move(op));
      }
      version[origin] = seq - 1;
    }
    msg.versions[doc] = std::move(version);
    if (!ops.empty()) msg.ops[doc] = std::move(ops);
  }
  msg.truncated = rng.chance(0.2);
  msg.rejoin = rng.chance(0.1);
  return msg;
}

SyncMessage random_digest(util::Rng& rng) {
  SyncMessage msg;
  msg.kind = SyncKind::kDigest;
  msg.from = "replica" + std::to_string(rng.uniform_int(0, 5));
  msg.versions = random_versions(rng);
  msg.rejoin = rng.chance(0.25);
  return msg;
}

SyncMessage random_bootstrap(util::Rng& rng) {
  SyncMessage msg;
  msg.kind = SyncKind::kBootstrap;
  msg.from = "replica" + std::to_string(rng.uniform_int(0, 5));
  msg.versions = random_versions(rng);
  msg.bootstrap = json::Value::object(
      {{"tables", json::Value::object({{"rows", double(rng.uniform_int(0, 99))}})},
       {"token", rng.token(6)}});
  msg.rejoin = rng.chance(0.4);
  return msg;
}

SyncMessage random_message(util::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return random_digest(rng);
    case 1: return random_bootstrap(rng);
    default: return random_ops_message(rng);
  }
}

// ---- mutators --------------------------------------------------------------

/// Grafts another kind's tag or payload field onto the frame (right after
/// the opening brace, so the JSON stays parseable and the confusion has to
/// be caught by the codec's own cross-kind validation, not the parser).
std::string confuse_kind(std::string text, util::Rng& rng) {
  static const char* kSplices[] = {
      R"("k":"dig",)",           R"("k":"boot",)",      R"("k":"zzz",)",
      R"("g":{"tables":[1]},)",  R"("o":["edge0"],)",   R"("b":{},)",
      R"("d":{},)",              R"("b":7,)",           R"("t":true,)",
      R"("rj":"maybe",)",        R"("v":3,)",
  };
  if (!text.empty() && text.front() == '{') {
    text.insert(1, kSplices[rng.index(std::size(kSplices))]);
  }
  return text;
}

std::string mutate(std::string text, util::Rng& rng) {
  if (text.empty()) return text;
  switch (rng.uniform_int(0, 6)) {
    case 0:  // truncation
      text.resize(rng.index(text.size()));
      return text;
    case 1: {  // bit flips
      const int flips = int(rng.uniform_int(1, 4));
      for (int i = 0; i < flips; ++i) {
        text[rng.index(text.size())] ^= char(1u << rng.uniform_int(0, 7));
      }
      return text;
    }
    case 2: {  // digit corruption: lengths, seqs, counters, versions
      for (int attempt = 0; attempt < 32; ++attempt) {
        const std::size_t at = rng.index(text.size());
        if (text[at] >= '0' && text[at] <= '9') {
          // Grow the number too — "1" -> "1e300", "-5", "90071992547409931"
          static const char* kDigits[] = {"0", "7", "-", ".", "e3", "99999999999999999"};
          text.replace(at, 1, kDigits[rng.index(std::size(kDigits))]);
          break;
        }
      }
      return text;
    }
    case 3: {  // delete a slice
      const std::size_t at = rng.index(text.size());
      text.erase(at, rng.uniform_int(1, 12));
      return text;
    }
    case 4: {  // duplicate a slice (repeated keys, doubled runs)
      const std::size_t at = rng.index(text.size());
      const std::size_t len = std::min<std::size_t>(text.size() - at, rng.uniform_int(1, 24));
      text.insert(at, text.substr(at, len));
      return text;
    }
    case 5:  // random byte splat
      text[rng.index(text.size())] = char(rng.uniform_int(32, 126));
      return text;
    default:
      return confuse_kind(std::move(text), rng);
  }
}

bool kinds_equal(const SyncMessage& a, const SyncMessage& b) {
  return a.kind == b.kind && a.from == b.from && a.op_count() == b.op_count() &&
         a.truncated == b.truncated && a.rejoin == b.rejoin;
}

// ---- the fuzz loop ---------------------------------------------------------

TEST(WireFuzzTest, TenThousandMutantsDecodeOrThrowWireError) {
  util::Rng rng(kFuzzSeed);
  int decoded_ok = 0, rejected = 0, unparseable = 0, pass_through = 0;

  for (int c = 0; c < kCases; ++c) {
    const SyncMessage original = random_message(rng);
    std::string text = encode_message(original).dump();
    const bool mutated = !rng.chance(0.1);
    if (mutated) {
      const int layers = int(rng.uniform_int(1, 2));
      for (int i = 0; i < layers; ++i) text = mutate(std::move(text), rng);
    }

    json::Value parsed;
    try {
      parsed = json::parse(text);
    } catch (const json::ParseError&) {
      ++unparseable;  // parser rejected the mutant before the codec saw it
      continue;
    }

    try {
      const SyncMessage decoded = decode_message(parsed);
      // Whatever the codec accepts it must also be able to re-emit, and
      // the re-emitted frame must mean the same thing.
      const SyncMessage again = decode_message(encode_message(decoded));
      ASSERT_TRUE(kinds_equal(again, decoded))
          << "case " << c << " (seed " << kFuzzSeed << "): accepted frame did not round-trip";
      if (!mutated) {
        ++pass_through;
        ASSERT_TRUE(kinds_equal(decoded, original))
            << "case " << c << " (seed " << kFuzzSeed << "): clean frame decoded differently";
      } else {
        ++decoded_ok;
      }
    } catch (const WireError&) {
      ASSERT_TRUE(mutated) << "case " << c << " (seed " << kFuzzSeed
                           << "): clean frame rejected: " << text;
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "case " << c << " (seed " << kFuzzSeed << "): decode threw "
             << typeid(e).name() << " (" << e.what() << ") instead of WireError on: " << text;
    }
  }

  // The corpus must actually exercise every path, not collapse into one
  // bucket (e.g. a mutator so destructive nothing ever reaches the codec).
  EXPECT_EQ(decoded_ok + rejected + unparseable + pass_through, kCases);
  EXPECT_GT(pass_through, 100) << "clean round-trip cases";
  EXPECT_GT(decoded_ok, 100) << "mutants the codec legitimately tolerated";
  EXPECT_GT(rejected, 500) << "mutants rejected with WireError";
  EXPECT_GT(unparseable, 1000) << "mutants rejected by the JSON parser";
}

}  // namespace
}  // namespace edgstr::crdt
