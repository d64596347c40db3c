#include <gtest/gtest.h>

#include <cstdio>

#include "crdt/files.h"
#include "crdt/json_doc.h"
#include "crdt/lww.h"
#include "crdt/snapshot.h"
#include "crdt/table.h"
#include "util/rng.h"
#include "util/strings.h"

namespace edgstr::crdt {
namespace {

// ----------------------------------------------------------------- Stamp --

TEST(StampTest, TotalOrderWithReplicaTieBreak) {
  EXPECT_LT((Stamp{1, "b"}), (Stamp{2, "a"}));
  EXPECT_LT((Stamp{2, "a"}), (Stamp{2, "b"}));
  EXPECT_EQ((Stamp{3, "x"}), (Stamp{3, "x"}));
}

// ----------------------------------------------------------------- OpLog --

TEST(OpLogTest, LocalOpsGetContiguousSeqs) {
  OpLog log("r1");
  Op a = log.make_local(json::Value(1));
  log.record(a);
  Op b = log.make_local(json::Value(2));
  log.record(b);
  EXPECT_EQ(a.seq, 1u);
  EXPECT_EQ(b.seq, 2u);
  EXPECT_LT(a.stamp, b.stamp);
}

TEST(OpLogTest, DuplicateDeliveryIgnored) {
  OpLog a("a"), b("b");
  Op op = a.make_local(json::Value("x"));
  a.record(op);
  EXPECT_TRUE(b.record(op));
  EXPECT_FALSE(b.record(op));
  EXPECT_TRUE(b.seen("a", 1));
}

TEST(OpLogTest, GapDetectionThrows) {
  OpLog a("a"), b("b");
  Op op1 = a.make_local(json::Value(1));
  a.record(op1);
  Op op2 = a.make_local(json::Value(2));
  a.record(op2);
  EXPECT_THROW(b.record(op2), std::logic_error);  // op1 missing
}

TEST(OpLogTest, ChangesSinceFiltersByVersion) {
  OpLog a("a");
  for (int i = 0; i < 3; ++i) a.record(a.make_local(json::Value(i)));
  VersionVector known;
  known["a"] = 1;
  const auto delta = a.changes_since(known);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].seq, 2u);
  EXPECT_EQ(delta[1].seq, 3u);
}

TEST(OpLogTest, LamportAdvancesPastRemoteStamps) {
  OpLog a("a"), b("b");
  for (int i = 0; i < 5; ++i) a.record(a.make_local(json::Value(i)));
  for (const Op& op : a.changes_since({})) b.record(op);
  Op next = b.make_local(json::Value("after"));
  EXPECT_GT(next.stamp.counter, 5u - 1);  // strictly after everything seen
}

// ------------------------------------------------------------------- LWW --

TEST(LwwMapTest, PutGetRemove) {
  LwwMap m;
  m.put("k", json::Value(1), Stamp{1, "a"});
  EXPECT_TRUE(m.contains("k"));
  m.remove("k", Stamp{2, "a"});
  EXPECT_FALSE(m.contains("k"));
  // A write older than the tombstone loses.
  m.put("k", json::Value(2), Stamp{1, "b"});
  EXPECT_FALSE(m.contains("k"));
  // A newer write resurrects.
  m.put("k", json::Value(3), Stamp{3, "b"});
  EXPECT_TRUE(m.contains("k"));
}

TEST(LwwMapTest, MergeResolvesByStamp) {
  LwwMap a, b;
  a.put("k", json::Value("from-a"), Stamp{5, "a"});
  b.put("k", json::Value("from-b"), Stamp{3, "b"});
  b.merge(a);
  a.merge(b);
  EXPECT_EQ(*a.get("k"), json::Value("from-a"));
  EXPECT_TRUE(a == b);
}

// -------------------------------------------------------------- CrdtJson --

// digest() streams its text; it must equal the dump of an object holding
// the live entries in key order, the form it was defined by.
TEST(LwwMapTest, DigestEqualsDumpOfLiveObject) {
  util::Rng rng(21);
  LwwMap map;
  const auto reference = [&map] {
    json::Object live;
    for (const std::string& key : map.keys()) live.append(key, *map.find(key));
    return json::Value(std::move(live)).dump();
  };
  EXPECT_EQ(map.digest(), "{}");
  const char* keys[] = {"a", "b\"q", "\x01ctl", "k\\", "\xc3\xa9"};
  for (std::uint64_t step = 1; step <= 200; ++step) {
    const std::string key = keys[rng.index(5)];
    const Stamp stamp{step, "r"};
    if (rng.chance(0.3)) {
      map.remove(key, stamp);
    } else {
      map.put(key,
              rng.chance(0.5) ? json::Value(rng.token(4) + "\n\"")
                              : json::Value::object({{"n", double(rng.uniform_int(-5, 5))},
                                                     {"list", json::Value::array({-0.0, 0.5})},
                                                     {"empty", json::Value::object({})}}),
              stamp);
    }
    ASSERT_EQ(map.digest(), reference()) << "step " << step;
  }
}

TEST(SnapshotTest, ContentDigestIsHexFnvOfDump) {
  const json::Value state = json::Value::object(
      {{"rows", json::Value::array({1.0, "two", json::Value()})}, {"s", "\u00e9\x01"}});
  const std::uint64_t h = util::fnv1a(state.dump());
  char expected[17];
  std::snprintf(expected, sizeof(expected), "%016llx", static_cast<unsigned long long>(h));
  EXPECT_EQ(Snapshot::content_digest(state), expected);
}

TEST(CrdtJsonTest, SetGetAndChanges) {
  CrdtJson a("edge0");
  a.initialize(json::Value::object({{"hits", 0}}));
  a.set("hits", json::Value(5));
  EXPECT_EQ(*a.get("hits"), json::Value(5));
  const auto changes = a.getChanges({});
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].origin, "edge0");
}

TEST(CrdtJsonTest, TwoReplicasConverge) {
  CrdtJson a("a"), b("b");
  const json::Value base = json::Value::object({{"x", 1}});
  a.initialize(base);
  b.initialize(base);
  a.set("x", json::Value(10));
  b.set("y", json::Value(20));
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(*a.get("x"), json::Value(10));
  EXPECT_EQ(*a.get("y"), json::Value(20));
}

TEST(CrdtJsonTest, ConcurrentWritesResolveDeterministically) {
  CrdtJson a("a"), b("b");
  a.initialize(json::Value::object({}));
  b.initialize(json::Value::object({}));
  a.set("k", json::Value("from-a"));
  b.set("k", json::Value("from-b"));
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));
  EXPECT_EQ(a.state_digest(), b.state_digest());  // same winner on both sides
}

TEST(CrdtJsonTest, SyncFromDiffsState) {
  CrdtJson a("a");
  a.initialize(json::Value::object({{"x", 1}, {"y", 2}}));
  // x changed, y unchanged, z new.
  const std::size_t ops =
      a.sync_from(json::Value::object({{"x", 9}, {"y", 2}, {"z", 3}}));
  EXPECT_EQ(ops, 2u);
  // Removed key.
  EXPECT_EQ(a.sync_from(json::Value::object({{"x", 9}, {"y", 2}})), 1u);
  EXPECT_FALSE(a.get("z"));
}

TEST(CrdtJsonTest, ApplyIsIdempotentAndSkipsOwnOps) {
  CrdtJson a("a"), b("b");
  a.initialize(json::Value::object({}));
  b.initialize(json::Value::object({}));
  a.set("k", json::Value(1));
  const auto changes = a.getChanges({});
  EXPECT_EQ(b.applyChanges(changes), 1u);
  EXPECT_EQ(b.applyChanges(changes), 0u);
  EXPECT_EQ(a.applyChanges(changes), 0u);  // own ops echoed back
}

// ------------------------------------------------------------- CrdtTable --

class CrdtTableFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sqldb::Database seed;
    seed.execute("CREATE TABLE t (k, v)");
    seed.execute("INSERT INTO t (k, v) VALUES ('base', 0)");
    snapshot = seed.snapshot();
  }
  json::Value snapshot;
};

TEST_F(CrdtTableFixture, InitializeRestoresBaseline) {
  sqldb::Database db;
  CrdtTable table("e0", &db);
  table.initialize(snapshot);
  EXPECT_EQ(db.execute("SELECT * FROM t").rows.size(), 1u);
  EXPECT_EQ(table.live_rows(), 1u);
}

TEST_F(CrdtTableFixture, LocalInsertPropagates) {
  sqldb::Database da, dc;
  CrdtTable a("edge", &da), c("cloud", &dc);
  a.initialize(snapshot);
  c.initialize(snapshot);

  da.execute("INSERT INTO t (k, v) VALUES ('new', 42)");
  EXPECT_EQ(a.record_local_mutations(), 1u);
  c.applyChanges(a.getChanges(c.version()));
  EXPECT_EQ(dc.execute("SELECT v FROM t WHERE k = 'new'").rows[0][0].as_int(), 42);
  EXPECT_EQ(a.state_digest(), c.state_digest());
}

TEST_F(CrdtTableFixture, ConcurrentInsertsBothSurvive) {
  sqldb::Database da, db_, dc;
  CrdtTable a("e0", &da), b("e1", &db_), c("cloud", &dc);
  a.initialize(snapshot);
  b.initialize(snapshot);
  c.initialize(snapshot);

  da.execute("INSERT INTO t (k, v) VALUES ('from-a', 1)");
  db_.execute("INSERT INTO t (k, v) VALUES ('from-b', 2)");
  a.record_local_mutations();
  b.record_local_mutations();

  // Star sync through the cloud.
  c.applyChanges(a.getChanges(c.version()));
  c.applyChanges(b.getChanges(c.version()));
  a.applyChanges(c.getChanges(a.version()));
  b.applyChanges(c.getChanges(b.version()));

  for (sqldb::Database* d : {&da, &db_, &dc}) {
    EXPECT_EQ(d->execute("SELECT * FROM t").rows.size(), 3u);  // base + 2
  }
  EXPECT_EQ(a.state_digest(), c.state_digest());
  EXPECT_EQ(b.state_digest(), c.state_digest());
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST_F(CrdtTableFixture, ConcurrentUpdateSameRowLwwResolves) {
  sqldb::Database da, db_;
  CrdtTable a("a", &da), b("b", &db_);
  a.initialize(snapshot);
  b.initialize(snapshot);

  da.execute("UPDATE t SET v = 100 WHERE k = 'base'");
  db_.execute("UPDATE t SET v = 200 WHERE k = 'base'");
  a.record_local_mutations();
  b.record_local_mutations();
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));

  EXPECT_EQ(a.state_digest(), b.state_digest());
  const auto va = da.execute("SELECT v FROM t WHERE k = 'base'").rows[0][0].as_int();
  const auto vb = db_.execute("SELECT v FROM t WHERE k = 'base'").rows[0][0].as_int();
  EXPECT_EQ(va, vb);
  EXPECT_TRUE(va == 100 || va == 200);
}

TEST_F(CrdtTableFixture, DeletePropagates) {
  sqldb::Database da, dc;
  CrdtTable a("edge", &da), c("cloud", &dc);
  a.initialize(snapshot);
  c.initialize(snapshot);
  da.execute("DELETE FROM t WHERE k = 'base'");
  a.record_local_mutations();
  c.applyChanges(a.getChanges(c.version()));
  EXPECT_TRUE(dc.execute("SELECT * FROM t").rows.empty());
  EXPECT_EQ(a.state_digest(), c.state_digest());
}

TEST_F(CrdtTableFixture, ReplicatedWritesMoveTheTableEpoch) {
  sqldb::Database da, dc;
  CrdtTable a("edge", &da), c("cloud", &dc);
  a.initialize(snapshot);
  c.initialize(snapshot);
  // Equal stamps must mean equal content on the receiving replica too, so
  // every materialized insert, update and delete re-stamps the table.
  for (const char* sql : {"INSERT INTO t (k, v) VALUES ('new', 1)",
                          "UPDATE t SET v = 2 WHERE k = 'new'", "DELETE FROM t WHERE k = 'new'"}) {
    da.execute(sql);
    a.record_local_mutations();
    const std::uint64_t before = dc.table_epoch("t");
    EXPECT_EQ(c.applyChanges(a.getChanges(c.version())), 1u) << sql;
    EXPECT_NE(dc.table_epoch("t"), before) << sql;
    EXPECT_TRUE(dc == da) << sql;
  }
}

TEST_F(CrdtTableFixture, AttachExistingKeysLiveState) {
  sqldb::Database dc;
  dc.restore(snapshot);
  CrdtTable c("cloud", &dc);
  c.attach_existing();
  sqldb::Database de;
  CrdtTable e("edge", &de);
  e.initialize(snapshot);
  // Cloud updates the baseline row; the edge must apply it to the same row.
  dc.execute("UPDATE t SET v = 7 WHERE k = 'base'");
  c.record_local_mutations();
  e.applyChanges(c.getChanges(e.version()));
  EXPECT_EQ(de.execute("SELECT v FROM t WHERE k = 'base'").rows[0][0].as_int(), 7);
  EXPECT_EQ(de.execute("SELECT * FROM t").rows.size(), 1u);  // no duplicate
}

// ------------------------------------------------------------- CrdtFiles --

TEST(CrdtFilesTest, WriteDetectionAndPropagation) {
  vfs::Vfs fa, fb;
  fa.write("data/log.txt", "init");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);

  fa.write("data/log.txt", "updated");
  EXPECT_EQ(a.record_local_changes(), 1u);
  b.applyChanges(a.getChanges(b.version()));
  EXPECT_EQ(fb.read("data/log.txt"), "updated");
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(CrdtFilesTest, RemovalPropagates) {
  vfs::Vfs fa, fb;
  fa.write("f", "x");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);
  fa.remove("f");
  a.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  EXPECT_FALSE(fb.exists("f"));
}

TEST(CrdtFilesTest, ConcurrentWritesConvergeToOneWinner) {
  vfs::Vfs fa, fb;
  fa.write("f", "0");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);
  fa.write("f", "from-a");
  fb.write("f", "from-b");
  a.record_local_changes();
  b.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(fa.read("f"), fb.read("f"));
}

TEST(CrdtFilesTest, FilterExcludesUnreplicatedPaths) {
  vfs::Vfs fa;
  fa.write("replicated.txt", "r");
  fa.write("private.txt", "p");
  CrdtFiles a("a", &fa);
  a.attach_existing({"replicated.txt"});
  fa.write("replicated.txt", "r2");
  fa.write("private.txt", "p2");
  EXPECT_EQ(a.record_local_changes(), 1u);  // only the replicated path
}

// ---------------------------------------------------- CrdtFiles appends --

TEST(CrdtFilesAppendTest, ConcurrentAppendsBothSurvive) {
  vfs::Vfs fa, fb;
  fa.write("notes.log", "base;");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);

  fa.append("notes.log", "from-a;");
  fb.append("notes.log", "from-b;");
  a.record_local_changes();
  b.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));

  EXPECT_EQ(a.state_digest(), b.state_digest());
  const std::string merged = fa.read("notes.log");
  EXPECT_EQ(merged, fb.read("notes.log"));
  // Under whole-file LWW one of these would have been lost.
  EXPECT_NE(merged.find("from-a;"), std::string::npos);
  EXPECT_NE(merged.find("from-b;"), std::string::npos);
  EXPECT_EQ(merged.find("base;"), 0u);
}

TEST(CrdtFilesAppendTest, SequentialAppendsStayChronological) {
  vfs::Vfs fa, fb;
  fa.write("audit.log", "");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);

  fa.append("audit.log", "1;");
  a.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  fb.append("audit.log", "2;");
  b.record_local_changes();
  a.applyChanges(b.getChanges(a.version()));
  EXPECT_EQ(fa.read("audit.log"), "1;2;");
  EXPECT_EQ(fb.read("audit.log"), "1;2;");
}

TEST(CrdtFilesAppendTest, RewriteSupersedesOlderAppends) {
  vfs::Vfs fa, fb;
  fa.write("roll.log", "old;");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);

  fa.append("roll.log", "tail;");
  a.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  // Log rotation on a: truncate-and-rewrite wins over the old tail.
  fa.write("roll.log", "rotated;");
  a.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(fb.read("roll.log"), "rotated;");
}

TEST(CrdtFilesAppendTest, NonLogPathsKeepLww) {
  vfs::Vfs fa, fb;
  fa.write("data/state.txt", "v0");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);
  fa.append("data/state.txt", "-a");
  fb.append("data/state.txt", "-b");
  a.record_local_changes();
  b.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));
  EXPECT_EQ(a.state_digest(), b.state_digest());
  // .txt is whole-file LWW: exactly one writer wins, no merge.
  const std::string content = fa.read("data/state.txt");
  EXPECT_TRUE(content == "v0-a" || content == "v0-b");
}

TEST(CrdtFilesAppendTest, CustomSuffixConfiguration) {
  vfs::Vfs fa, fb;
  fa.write("events.jsonl", "");
  const json::Value snap = fa.snapshot();
  CrdtFiles a("a", &fa), b("b", &fb);
  a.initialize(snap);
  b.initialize(snap);
  a.set_append_merge_suffixes({".jsonl"});
  b.set_append_merge_suffixes({".jsonl"});
  fa.append("events.jsonl", "{\"e\":1}\n");
  fb.append("events.jsonl", "{\"e\":2}\n");
  a.record_local_changes();
  b.record_local_changes();
  b.applyChanges(a.getChanges(b.version()));
  a.applyChanges(b.getChanges(a.version()));
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_NE(fa.read("events.jsonl").find("{\"e\":1}"), std::string::npos);
  EXPECT_NE(fa.read("events.jsonl").find("{\"e\":2}"), std::string::npos);
}

// ------------------------------------------------- OpLog per-origin index --

/// changes_since() as it was before the per-origin index: one scan of the
/// whole log. The differential oracle for the indexed version.
std::vector<Op> full_scan_changes(const OpLog& log, const VersionVector& known) {
  std::vector<Op> out;
  for (const Op& op : log.all_ops()) {
    auto it = known.find(op.origin);
    const std::uint64_t have = it == known.end() ? 0 : it->second;
    if (op.seq > have) out.push_back(op);
  }
  return out;
}

std::string describe(const std::vector<Op>& ops) {
  std::string out;
  for (const Op& op : ops) out += op.to_json().dump() + "\n";
  return out;
}

TEST(OpLogIndexTest, ChangesSinceMatchesFullScanUnderRandomHistories) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    // 1-5 origins, each minting its own op stream ahead of time.
    const std::size_t origin_count = static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<std::string> origins;
    std::map<std::string, std::vector<Op>> minted;
    for (std::size_t i = 0; i < origin_count; ++i) {
      origins.push_back("o" + std::to_string(i));
      OpLog source(origins.back());
      for (int n = 0; n < 40; ++n) {
        if (rng.chance(0.3)) source.observe(Stamp{source.lamport() + 3, "x"});
        Op op = source.make_local(json::Value::object({{"n", n}}));
        source.record(op);
        minted[origins.back()].push_back(op);
      }
    }
    OpLog log("under-test");
    const auto have = [&](const std::string& origin) -> std::uint64_t {
      auto it = log.version().find(origin);
      return it == log.version().end() ? 0 : it->second;
    };
    for (int step = 0; step < 120; ++step) {
      const std::string& origin = origins[rng.index(origins.size())];
      const double pick = rng.next_double();
      if (pick < 0.70) {  // record the origin's next op (or a duplicate)
        const std::uint64_t next = have(origin) + 1;
        if (next <= minted[origin].size()) {
          EXPECT_TRUE(log.record(minted[origin][next - 1]));
        }
        if (next > 1 && rng.chance(0.2)) {
          EXPECT_FALSE(log.record(minted[origin][next - 2]));
        }
      } else if (pick < 0.85) {  // compact a random acknowledged prefix
        VersionVector acked;
        for (const std::string& o : origins) {
          if (rng.chance(0.7)) acked[o] = static_cast<std::uint64_t>(rng.uniform_int(0, have(o)));
        }
        log.compact(acked);
      } else if (pick < 0.93) {  // adopt a snapshot horizon at or past the log
        VersionVector covered;
        for (const std::string& o : origins) {
          covered[o] = static_cast<std::uint64_t>(rng.uniform_int(have(o), minted[o].size()));
        }
        log.reset_to(covered, log.lamport());
      } else {  // round-trip through to_json()/restore()
        OpLog restored(log.replica());
        restored.restore(log.to_json());
        log = std::move(restored);
      }
      for (int probe = 0; probe < 4; ++probe) {
        VersionVector known;
        for (const std::string& o : origins) {
          if (rng.chance(0.8)) known[o] = static_cast<std::uint64_t>(rng.uniform_int(0, 42));
        }
        if (rng.chance(0.1)) known["stranger"] = 5;
        const std::vector<Op> got = log.changes_since(known);
        const std::vector<Op> want = full_scan_changes(log, known);
        ASSERT_EQ(describe(got), describe(want)) << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(OpLogIndexTest, RestoreRejectsDescendingSeqs) {
  OpLog source("a");
  for (int n = 0; n < 3; ++n) source.record(source.make_local(json::Value(n)));
  json::Value serialized = source.to_json();
  json::Array& ops = serialized.as_object().at("ops").as_array();
  std::swap(ops[0], ops[2]);
  OpLog log("b");
  EXPECT_THROW(log.restore(serialized), std::invalid_argument);
}

// ------------------------------------------------------------ Op sizing --

TEST(OpWireSizeTest, SumOfPartsMatchesTheSerializedOp) {
  util::Rng rng(7);
  const std::vector<std::string> names = {"", "edge0", "a\"b", "back\\slash", "ctl\x01\x1f",
                                          "caf\xc3\xa9", std::string(70, 'n')};
  const std::vector<double> counters = {0, 1, 9, 10, 999999999999999.0, 1e15, 9007199254740992.0};
  for (int i = 0; i < 500; ++i) {
    Op op;
    op.origin = names[rng.index(names.size())];
    op.seq = static_cast<std::uint64_t>(counters[rng.index(counters.size())]);
    op.stamp = Stamp{static_cast<std::uint64_t>(counters[rng.index(counters.size())]),
                     names[rng.index(names.size())]};
    if (i % 5 != 0) {
      op.set_payload(json::Value::object(
          {{"type", "set"}, {"key", names[rng.index(names.size())]},
           {"value", rng.chance(0.5) ? json::Value(rng.uniform(-1e20, 1e20))
                                     : json::Value::array({json::Value(), "x\n", -0.0})}}));
    }  // every fifth op keeps the null payload
    EXPECT_EQ(op.wire_size(), op.to_json().wire_size()) << op.to_json().dump();
    EXPECT_EQ(op.wire_size(), op.wire_size());  // the cached payload size
  }
}

// ------------------------------------------------------- payload sharing --

TEST(OpPayloadSharingTest, CopiesShareNotClone) {
  OpLog log("a");
  Op op = log.make_local(json::Value::object({{"k", "v"}}));
  const Op copy = op;
  EXPECT_EQ(&copy.payload(), &op.payload());
  log.record(op);
  EXPECT_EQ(&log.all_ops().back().payload(), &op.payload());
  EXPECT_EQ(&log.changes_since({}).front().payload(), &op.payload());
  std::shared_ptr<const json::Value> part = op.share(op.payload()["k"]);
  op.set_payload(json::Value("replaced"));  // a new payload; the old one lives on
  EXPECT_EQ(part->as_string(), "v");
  EXPECT_EQ(&copy.payload()["k"], part.get());
}

TEST_F(CrdtTableFixture, AppliedOpSharesOnePayloadBetweenLogAndRows) {
  sqldb::Database da, db_;
  CrdtTable a("e0", &da), b("e1", &db_);
  a.initialize(snapshot);
  b.initialize(snapshot);
  da.execute("INSERT INTO t (k, v) VALUES ('new', 7)");
  ASSERT_EQ(a.record_local_mutations(), 1u);
  const std::vector<Op> shipped = a.getChanges(b.version());
  ASSERT_EQ(shipped.size(), 1u);
  const std::string& key = shipped[0].payload()["key"].as_string();
  // The minting replica's log and rows share the payload...
  EXPECT_EQ(a.find_row(key), &shipped[0].payload());
  // ...and so do the applying replica's, with the applied op's.
  ASSERT_EQ(b.applyChanges(shipped), 1u);
  const std::vector<Op> logged = b.getChanges({});
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(&logged[0].payload(), &shipped[0].payload());
  EXPECT_EQ(b.find_row(key), &logged[0].payload());
}

TEST(CrdtJsonTest, AppliedValueAliasesTheLoggedPayload) {
  CrdtJson a("a"), b("b");
  a.set("x", json::Value::object({{"deep", json::Value::array({1, 2})}}));
  const std::vector<Op> shipped = a.getChanges(b.version());
  ASSERT_EQ(shipped.size(), 1u);
  EXPECT_EQ(a.find("x"), &shipped[0].payload()["value"]);
  b.applyChanges(shipped);
  EXPECT_EQ(b.find("x"), &shipped[0].payload()["value"]);
  EXPECT_EQ(*b.get("x"), *a.get("x"));
}

}  // namespace
}  // namespace edgstr::crdt
