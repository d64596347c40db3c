// Durable op log: CRC-framed records, power-loss recovery at every write
// offset, snapshot-gated compaction, rewrite crash-safety, and the
// fail_sync planted fault the sim's durable-op-loss invariant catches.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "durability/oplog_store.h"
#include "durability/storage.h"
#include "util/rng.h"

namespace edgstr::durability {
namespace {

crdt::Op make_op(const std::string& origin, std::uint64_t seq, double value) {
  crdt::Op op;
  op.origin = origin;
  op.seq = seq;
  op.stamp = crdt::Stamp{seq, origin};
  op.set_payload(json::Value::object({{"k", "key" + std::to_string(seq)}, {"v", value}}));
  return op;
}

crdt::Snapshot make_snapshot(const json::Value& state, crdt::VersionVector covered,
                             std::uint64_t lamport) {
  crdt::Snapshot snap;
  snap.state = state;
  snap.covered = std::move(covered);
  snap.lamport = lamport;
  snap.digest = crdt::Snapshot::content_digest(state);
  return snap;
}

/// End offsets of every complete frame in a log image (the byte positions
/// recovery may truncate to). Recomputed here from the wire layout — u32 LE
/// length, u32 crc, payload — so the test checks the format, not the code.
std::vector<std::size_t> frame_ends(const std::string& data) {
  std::vector<std::size_t> ends;
  std::size_t at = 0;
  while (data.size() - at >= 8) {
    std::size_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<unsigned char>(data[at + static_cast<std::size_t>(i)]);
    }
    if (data.size() - at - 8 < len) break;
    at += 8 + len;
    ends.push_back(at);
  }
  return ends;
}

// -------------------------------------------------------------------- crc --

TEST(Crc32Test, MatchesTheIeeeCheckValue) {
  // The standard CRC-32/IEEE check vector; a wrong polynomial, init, or
  // reflection would make on-disk logs unreadable by any external tool.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

/// Plain bytewise CRC-32/IEEE with the table built on the spot: the
/// oracle for the sliced implementation.
std::uint32_t crc32_bytewise(const std::string& data) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBytewiseOnEveryShortLengthAndLargeBuffers) {
  util::Rng rng(4242);
  auto random_bytes = [&](std::size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(rng.uniform_int(0, 255));
    return out;
  };
  for (int i = 0; i < 10'000; ++i) {
    const std::string data = random_bytes(static_cast<std::size_t>(i % 65));  // lengths 0-64
    ASSERT_EQ(crc32(data), crc32_bytewise(data)) << "length " << data.size();
  }
  for (const std::size_t n : {std::size_t{1000}, std::size_t{4099}, std::size_t{65536 + 7}}) {
    const std::string data = random_bytes(n);
    EXPECT_EQ(crc32(data), crc32_bytewise(data)) << "length " << n;
  }
}

// ---------------------------------------------------------------- framing --

TEST(OpLogStoreTest, AppendSyncRecoverRoundtrips) {
  MemBackend backend;
  OpLogStore store(&backend);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) store.append_op("tables", make_op("e0", seq, 1.0));
  store.sync();

  const OpLogStore::Recovered rec = store.recover();
  EXPECT_EQ(rec.records, 5u);
  EXPECT_EQ(rec.truncated_records, 0u);
  EXPECT_FALSE(rec.snapshots.count("tables"));
  ASSERT_EQ(rec.ops.at("tables").size(), 5u);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    const crdt::Op& op = rec.ops.at("tables")[seq - 1];
    EXPECT_EQ(op.origin, "e0");
    EXPECT_EQ(op.seq, seq);
    EXPECT_EQ(op.payload()["k"].as_string(), "key" + std::to_string(seq));
  }
  EXPECT_EQ(store.appended_ops(), 5u);
  EXPECT_EQ(store.recoveries(), 1u);
}

TEST(OpLogStoreTest, RecoverIsIdempotentAndAppendsExtendIt) {
  MemBackend backend;
  OpLogStore store(&backend);
  store.append_op("tables", make_op("e0", 1, 1.0));
  store.sync();

  const OpLogStore::Recovered first = store.recover();
  const OpLogStore::Recovered again = store.recover();
  EXPECT_EQ(first.op_count(), 1u);
  EXPECT_EQ(again.op_count(), 1u);  // recover . recover = recover

  store.append_op("tables", make_op("e0", 2, 2.0));
  store.sync();
  EXPECT_EQ(store.recover().op_count(), 2u);  // appends between recoveries extend
}

TEST(OpLogStoreTest, SnapshotRecordSupersedesCoveredOps) {
  MemBackend backend;
  OpLogStore store(&backend);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) store.append_op("tables", make_op("e0", seq, 1.0));
  store.append_snapshot("tables",
                        make_snapshot(json::Value::object({{"rows", 3}}), {{"e0", 2}}, 9));
  store.append_op("tables", make_op("e0", 4, 4.0));
  store.sync();

  const OpLogStore::Recovered rec = store.recover();
  ASSERT_TRUE(rec.snapshots.count("tables"));
  EXPECT_EQ(rec.snapshots.at("tables").covered.at("e0"), 2u);
  EXPECT_EQ(rec.snapshots.at("tables").lamport, 9u);
  // The snapshot stands in for seqs 1..2; 3 (logged before the snapshot
  // but past its cover) and 4 replay on top.
  ASSERT_EQ(rec.ops.at("tables").size(), 2u);
  EXPECT_EQ(rec.ops.at("tables")[0].seq, 3u);
  EXPECT_EQ(rec.ops.at("tables")[1].seq, 4u);
}

// ------------------------------------------------------------- power loss --

// The flagship property: for EVERY byte offset a power loss can cut the
// unsynced tail at, recovery yields exactly the complete-frame prefix —
// never a torn op, never a lost synced one — and persists the truncation.
TEST(OpLogStoreTest, PowerLossAtEveryOffsetRecoversTheCleanPrefix) {
  // Build the reference image once: 3 synced ops, then 4 unsynced ones.
  MemBackend reference;
  OpLogStore ref_store(&reference);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ref_store.append_op("tables", make_op("e0", seq, double(seq)));
  }
  ref_store.sync();
  const std::uint64_t durable = reference.size() - reference.unsynced_bytes();
  for (std::uint64_t seq = 4; seq <= 7; ++seq) {
    ref_store.append_op("tables", make_op("e0", seq, double(seq)));
  }
  const std::string full = reference.read_all();
  const std::uint64_t unsynced = reference.unsynced_bytes();
  ASSERT_GT(unsynced, 0u);
  const std::vector<std::size_t> ends = frame_ends(full);
  ASSERT_EQ(ends.size(), 7u);

  for (std::uint64_t keep = 0; keep <= unsynced; ++keep) {
    // MemBackend(bytes) starts with `bytes` durable — exactly the platter
    // image power_loss(keep) leaves behind.
    const std::string platter = full.substr(0, durable + keep);
    MemBackend backend(platter);
    OpLogStore store(&backend);
    const OpLogStore::Recovered rec = store.recover();

    std::size_t complete = 0, clean_end = 0;
    for (const std::size_t end : ends) {
      if (end <= platter.size()) {
        ++complete;
        clean_end = end;
      }
    }
    ASSERT_GE(complete, 3u) << "a synced op was lost at keep=" << keep;
    ASSERT_EQ(rec.op_count(), complete) << "keep=" << keep;
    // Recovered ops are exactly the op-sequence prefix, in order.
    const std::vector<crdt::Op>& ops = rec.ops.at("tables");
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i].seq, i + 1) << "keep=" << keep;
    }
    if (platter.size() == clean_end) {
      EXPECT_EQ(rec.truncated_records, 0u) << "keep=" << keep;
    } else {
      EXPECT_EQ(rec.truncated_records, 1u) << "keep=" << keep;
      EXPECT_EQ(rec.truncated_bytes, platter.size() - clean_end) << "keep=" << keep;
    }
    // The truncation is persisted: the torn tail can never resurface.
    EXPECT_EQ(backend.size(), clean_end) << "keep=" << keep;
    const OpLogStore::Recovered again = store.recover();
    EXPECT_EQ(again.op_count(), complete) << "keep=" << keep;
    EXPECT_EQ(again.truncated_records, 0u) << "keep=" << keep;
  }
}

TEST(OpLogStoreTest, CorruptMiddleRecordTruncatesEverythingAfterIt) {
  MemBackend reference;
  OpLogStore ref_store(&reference);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ref_store.append_op("tables", make_op("e0", seq, double(seq)));
  }
  std::string image = reference.read_all();
  const std::vector<std::size_t> ends = frame_ends(image);
  ASSERT_EQ(ends.size(), 5u);
  // Flip one payload byte inside record 3: its CRC fails, and the scan must
  // stop there even though records 4 and 5 are intact bytes downstream —
  // after a torn write nothing past the tear is trustworthy.
  image[ends[2] - 1] ^= 0x01;
  MemBackend backend(image);
  OpLogStore store(&backend);
  const OpLogStore::Recovered rec = store.recover();
  EXPECT_EQ(rec.op_count(), 2u);
  EXPECT_EQ(rec.truncated_records, 1u);
  EXPECT_EQ(rec.truncated_bytes, image.size() - ends[1]);
}

// -------------------------------------------------------------- compaction --

TEST(OpLogStoreTest, CompactionDropsCoveredOpsAndShrinksTheLog) {
  MemBackend backend;
  OpLogStore store(&backend);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    store.append_op("tables", make_op("e0", seq, double(seq)));
  }
  store.sync();
  const std::uint64_t before = store.bytes();

  std::map<std::string, crdt::Snapshot> snaps;
  snaps["tables"] = make_snapshot(json::Value::object({{"rows", 8}}), {{"e0", 8}}, 20);
  EXPECT_EQ(store.compact(snaps), 8u);
  EXPECT_LT(store.bytes(), before);
  EXPECT_EQ(store.compactions(), 1u);

  const OpLogStore::Recovered rec = store.recover();
  ASSERT_TRUE(rec.snapshots.count("tables"));
  ASSERT_EQ(rec.ops.at("tables").size(), 2u);
  EXPECT_EQ(rec.ops.at("tables")[0].seq, 9u);
  EXPECT_EQ(rec.ops.at("tables")[1].seq, 10u);
}

TEST(OpLogStoreTest, CrashMidCompactionRecoversTheOldImage) {
  // rewrite() is atomic-replace: until a sync() commits the rebuilt log,
  // the old content stays durable. A compaction whose commit never lands
  // (fail_sync models the crash window) must lose neither the old nor the
  // new log — power loss falls back to the pre-compaction image.
  MemBackend backend;
  OpLogStore store(&backend);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    store.append_op("tables", make_op("e0", seq, double(seq)));
  }
  store.sync();

  backend.set_fail_sync(true);  // the compaction's commit sync is a lie
  std::map<std::string, crdt::Snapshot> snaps;
  snaps["tables"] = make_snapshot(json::Value::object({{"rows", 6}}), {{"e0", 6}}, 12);
  store.compact(snaps);
  backend.set_fail_sync(false);
  backend.power_loss(0);

  const OpLogStore::Recovered rec = store.recover();
  EXPECT_FALSE(rec.snapshots.count("tables"));  // the new image never committed
  EXPECT_EQ(rec.op_count(), 6u);                // the old one is fully intact
}

TEST(OpLogStoreTest, UnsyncedPlainRewriteAlsoFallsBackToTheOldImage) {
  MemBackend backend;
  OpLogStore store(&backend);
  store.append_op("tables", make_op("e0", 1, 1.0));
  store.sync();
  const std::string old_image = backend.read_all();

  backend.rewrite("replacement that never reaches the platter");
  EXPECT_GT(backend.unsynced_bytes(), 0u);
  backend.power_loss(999);  // keep-bytes are meaningless for a lost rewrite
  EXPECT_EQ(backend.read_all(), old_image);
  EXPECT_EQ(store.recover().op_count(), 1u);
}

// ------------------------------------------------------------- fail_sync --

TEST(OpLogStoreTest, LyingFsyncLosesEverythingWithThePower) {
  // The planted fault behind the sim's durable-op-loss invariant: sync()
  // claims success but makes nothing durable, so every "fsynced" op dies.
  MemBackend backend;
  backend.set_fail_sync(true);
  OpLogStore store(&backend);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    store.append_op("tables", make_op("e0", seq, double(seq)));
    store.sync();
  }
  EXPECT_EQ(store.fsyncs(), 4u);            // the store believes the disk
  EXPECT_GT(backend.unsynced_bytes(), 0u);  // the platter never saw a byte

  backend.power_loss(0);
  EXPECT_EQ(store.recover().op_count(), 0u);
}

// ------------------------------------------------------------ FileBackend --

TEST(FileBackendTest, SurvivesCloseAndReopen) {
  const std::string path = std::string(::testing::TempDir()) + "edgstr_oplog_roundtrip.log";
  std::remove(path.c_str());
  {
    FileBackend backend(path);
    OpLogStore store(&backend);
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      store.append_op("tables", make_op("e0", seq, double(seq)));
    }
    store.append_snapshot("globals",
                          make_snapshot(json::Value::object({{"count", 5}}), {{"e0", 5}}, 11));
    store.sync();
  }
  {
    FileBackend backend(path);
    OpLogStore store(&backend);
    const OpLogStore::Recovered rec = store.recover();
    EXPECT_EQ(rec.ops.at("tables").size(), 5u);
    ASSERT_TRUE(rec.snapshots.count("globals"));
    EXPECT_EQ(rec.snapshots.at("globals").state["count"].as_number(), 5.0);

    // Compaction (write-temp + rename) must leave a log the next open reads.
    std::map<std::string, crdt::Snapshot> snaps;
    snaps["tables"] = make_snapshot(json::Value::object({{"rows", 4}}), {{"e0", 4}}, 9);
    EXPECT_EQ(store.compact(snaps), 4u);
  }
  {
    FileBackend backend(path);
    OpLogStore store(&backend);
    const OpLogStore::Recovered rec = store.recover();
    ASSERT_TRUE(rec.snapshots.count("tables"));
    ASSERT_EQ(rec.ops.at("tables").size(), 1u);
    EXPECT_EQ(rec.ops.at("tables")[0].seq, 5u);
  }
  std::remove(path.c_str());
}

TEST(FileBackendTest, TruncatedFileRecoversItsCleanPrefix) {
  const std::string path = std::string(::testing::TempDir()) + "edgstr_oplog_torn.log";
  std::remove(path.c_str());
  std::string image;
  {
    FileBackend backend(path);
    OpLogStore store(&backend);
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      store.append_op("tables", make_op("e0", seq, double(seq)));
    }
    store.sync();
    image = backend.read_all();
  }
  // Tear the file mid-record, as a real power loss would leave it.
  const std::vector<std::size_t> ends = frame_ends(image);
  ASSERT_EQ(ends.size(), 3u);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(image.data(), 1, ends[1] + 5, f);  // 2 records + a torn third
    std::fclose(f);
  }
  {
    FileBackend backend(path);
    OpLogStore store(&backend);
    const OpLogStore::Recovered rec = store.recover();
    EXPECT_EQ(rec.op_count(), 2u);
    EXPECT_EQ(rec.truncated_records, 1u);
    EXPECT_EQ(backend.size(), ends[1]);  // truncation persisted to the file
  }
  std::remove(path.c_str());
}

TEST(OpLogStoreTest, NullBackendIsRejected) {
  EXPECT_THROW(OpLogStore(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace edgstr::durability
