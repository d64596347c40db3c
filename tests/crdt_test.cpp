#include <gtest/gtest.h>

#include "crdt/files.h"
#include "crdt/json_doc.h"
#include "crdt/lww.h"
#include "crdt/table.h"

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

}  // namespace
}  // namespace edgstr::crdt
