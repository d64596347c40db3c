// Wire-codec hardening: the batched sync encoding must survive hostile
// input — truncated headers, mismatched run lengths, non-integral seqs,
// gap-ridden runs — by throwing crdt::WireError, never by corrupting state
// or crashing. Plus a seeded round-trip property: decode(encode(m)) == m
// for arbitrary generated messages.
#include <gtest/gtest.h>

#include "crdt/wire.h"
#include "json/parse.h"
#include "util/rng.h"

namespace edgstr::crdt {
namespace {

json::Value wire_from(const std::string& text) { return json::parse(text); }

TEST(WireHostileTest, MissingSenderIsRejected) {
  EXPECT_THROW(decode_message(wire_from(R"({"v": {}})")), WireError);
  EXPECT_THROW(decode_message(wire_from(R"({"from": 7, "v": {}})")), WireError);
}

TEST(WireHostileTest, MissingVersionsIsRejected) {
  EXPECT_THROW(decode_message(wire_from(R"({"from": "a"})")), WireError);
  EXPECT_THROW(decode_message(wire_from(R"({"from": "a", "v": 3})")), WireError);
}

TEST(WireHostileTest, TruncatedRunHeaderIsRejected) {
  // Each of o/s/c/p missing in turn.
  for (const char* run : {R"({"s": 1, "c": [1], "p": [{}]})",   //
                          R"({"o": "e", "c": [1], "p": [{}]})",  //
                          R"({"o": "e", "s": 1, "p": [{}]})",    //
                          R"({"o": "e", "s": 1, "c": [1]})"}) {
    const std::string msg =
        std::string(R"({"from": "a", "v": {}, "d": {"tables": [)") + run + "]}}";
    EXPECT_THROW(decode_message(wire_from(msg)), WireError) << run;
  }
}

TEST(WireHostileTest, RunLengthMismatchIsRejected) {
  // More payloads than counters: naive decoding would read counters out of
  // bounds (UB) before validation existed.
  const std::string msg = R"({"from": "a", "v": {}, "d": {"tables": [
      {"o": "e", "s": 1, "c": [1], "p": [{}, {}, {}]}]}})";
  EXPECT_THROW(decode_message(wire_from(msg)), WireError);
  // Short replica array on a run that carries one.
  const std::string msg2 = R"({"from": "a", "v": {}, "d": {"tables": [
      {"o": "e", "s": 1, "c": [1, 1], "p": [{}, {}], "r": ["x"]}]}})";
  EXPECT_THROW(decode_message(wire_from(msg2)), WireError);
}

TEST(WireHostileTest, BadFirstSeqIsRejected) {
  for (const char* seq : {"0", "-4", "1.5", "1e300"}) {
    const std::string msg = std::string(R"({"from": "a", "v": {}, "d": {"tables": [)") +
                            R"({"o": "e", "s": )" + seq + R"(, "c": [1], "p": [{}]}]}})";
    EXPECT_THROW(decode_message(wire_from(msg)), WireError) << "s=" << seq;
  }
}

TEST(WireHostileTest, NonGapFreeSameOriginRunsAreRejected) {
  // Origin "e" jumps from seqs [1,2] to 9: a gap the encoder can never
  // produce, and which would otherwise explode deep inside OpLog::record.
  const std::string msg = R"({"from": "a", "v": {}, "d": {"tables": [
      {"o": "e", "s": 1, "c": [1, 1], "p": [{}, {}]},
      {"o": "other", "s": 5, "c": [9], "p": [{}]},
      {"o": "e", "s": 9, "c": [1], "p": [{}]}]}})";
  EXPECT_THROW(decode_message(wire_from(msg)), WireError);
  // The same shape WITHOUT the gap (resuming at 3) is legitimate: origins
  // interleave in log order, seqs stay contiguous per origin.
  const std::string ok = R"({"from": "a", "v": {}, "d": {"tables": [
      {"o": "e", "s": 1, "c": [1, 1], "p": [{}, {}]},
      {"o": "other", "s": 5, "c": [9], "p": [{}]},
      {"o": "e", "s": 3, "c": [1], "p": [{}]}]}})";
  EXPECT_EQ(decode_message(wire_from(ok)).op_count(), 4u);
}

TEST(WireHostileTest, LamportCounterOutOfRangeIsRejected) {
  const std::string msg = R"({"from": "a", "v": {}, "d": {"tables": [
      {"o": "e", "s": 1, "c": [5, -100], "p": [{}, {}]}]}})";
  EXPECT_THROW(decode_message(wire_from(msg)), WireError);
}

TEST(WireHostileTest, WrongTypesInsideRunsAreRejected) {
  for (const char* run : {R"({"o": 5, "s": 1, "c": [1], "p": [{}]})",
                          R"({"o": "e", "s": "one", "c": [1], "p": [{}]})",
                          R"({"o": "e", "s": 1, "c": 1, "p": [{}]})",
                          R"({"o": "e", "s": 1, "c": ["x"], "p": [{}]})"}) {
    const std::string msg =
        std::string(R"({"from": "a", "v": {}, "d": {"tables": [)") + run + "]}}";
    EXPECT_THROW(decode_message(wire_from(msg)), WireError) << run;
  }
}

TEST(WireHostileTest, RejectionDoesNotDisturbSubsequentDecodes) {
  EXPECT_THROW(decode_message(wire_from(R"({"from": "a"})")), WireError);
  const SyncMessage ok = decode_message(wire_from(
      R"({"from": "b", "v": {"tables": {"b": 2}}, "d": {"tables": [
          {"o": "b", "s": 1, "c": [1, 1], "p": [{"k": 1}, {"k": 2}]}]}})"));
  EXPECT_EQ(ok.from, "b");
  EXPECT_EQ(ok.op_count(), 2u);
  EXPECT_EQ(ok.ops.at("tables")[1].seq, 2u);
}

// ---- seeded round-trip property --------------------------------------------

SyncMessage random_message(util::Rng& rng) {
  SyncMessage msg;
  msg.from = "replica" + std::to_string(rng.uniform_int(0, 5));
  const char* docs[] = {"tables", "files", "globals"};
  for (const char* doc : docs) {
    if (rng.chance(0.3)) continue;  // exercise absent doc units
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
        // Occasionally a relayed stamp whose replica differs from the
        // origin, forcing the explicit "r" fallback onto the wire.
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
  return msg;
}

bool ops_equal(const Op& a, const Op& b) {
  return a.origin == b.origin && a.seq == b.seq && a.stamp == b.stamp &&
         a.payload().dump() == b.payload().dump();
}

TEST(WireRoundTripProperty, DecodeOfEncodeIsIdentity) {
  util::Rng rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    const SyncMessage original = random_message(rng);
    SyncMessage decoded;
    ASSERT_NO_THROW(decoded = decode_message(encode_message(original))) << "trial " << trial;

    EXPECT_EQ(decoded.from, original.from) << "trial " << trial;
    // Empty per-doc versions are dropped by the encoder by design; every
    // non-empty one must survive exactly.
    for (const auto& [doc, version] : original.versions) {
      if (version.empty()) continue;
      ASSERT_TRUE(decoded.versions.count(doc)) << "trial " << trial << " doc " << doc;
      EXPECT_TRUE(decoded.versions.at(doc) == version) << "trial " << trial << " doc " << doc;
    }
    ASSERT_EQ(decoded.op_count(), original.op_count()) << "trial " << trial;
    for (const auto& [doc, ops] : original.ops) {
      if (ops.empty()) continue;
      const auto& got = decoded.ops.at(doc);
      ASSERT_EQ(got.size(), ops.size()) << "trial " << trial << " doc " << doc;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_TRUE(ops_equal(got[i], ops[i]))
            << "trial " << trial << " doc " << doc << " op " << i
            << " (replay: seed 20260807)";
      }
    }
  }
}

}  // namespace
}  // namespace edgstr::crdt
