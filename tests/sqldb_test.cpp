#include <gtest/gtest.h>

#include "sqldb/database.h"

namespace edgstr::sqldb {
namespace {

class DatabaseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db.execute("CREATE TABLE users (id, name, age)");
    db.execute("INSERT INTO users (id, name, age) VALUES (1, 'ada', 36)");
    db.execute("INSERT INTO users (id, name, age) VALUES (2, 'bob', 25)");
    db.execute("INSERT INTO users (id, name, age) VALUES (3, 'cyd', 31)");
    db.drain_mutations();
  }
  Database db;
};

TEST(SqlValueTest, ComparisonSemantics) {
  EXPECT_EQ(SqlValue(1).compare(SqlValue(1.0)), 0);  // numeric cross-type
  EXPECT_LT(SqlValue(1).compare(SqlValue(2)), 0);
  EXPECT_GT(SqlValue("b").compare(SqlValue("a")), 0);
  EXPECT_EQ(SqlValue().compare(SqlValue()), 0);      // NULL == NULL
  EXPECT_LT(SqlValue().compare(SqlValue(0)), 0);     // NULL orders first
  EXPECT_LT(SqlValue(99).compare(SqlValue("a")), 0); // numbers before text
}

TEST(SqlValueTest, LikePatterns) {
  EXPECT_TRUE(SqlValue("hello world").like("hello%"));
  EXPECT_TRUE(SqlValue("hello world").like("%world"));
  EXPECT_TRUE(SqlValue("hello").like("h_llo"));
  EXPECT_TRUE(SqlValue("abc").like("%b%"));
  EXPECT_FALSE(SqlValue("abc").like("b%"));
  EXPECT_FALSE(SqlValue(42).like("%"));  // non-text never matches
}

TEST(SqlValueTest, JsonRoundTrip) {
  for (const SqlValue& v : {SqlValue(), SqlValue(7), SqlValue(2.5), SqlValue("txt")}) {
    EXPECT_EQ(SqlValue::from_json(v.to_json()).compare(v), 0);
  }
}

TEST(SqlParserTest, RejectsGarbage) {
  EXPECT_THROW(parse_sql("SELEKT * FROM t"), SqlError);
  EXPECT_THROW(parse_sql("SELECT FROM"), SqlError);
  EXPECT_THROW(parse_sql("INSERT INTO t"), SqlError);
  EXPECT_THROW(parse_sql(""), SqlError);
  EXPECT_FALSE(looks_like_sql("just some text"));
  EXPECT_TRUE(looks_like_sql("SELECT a FROM b"));
}

TEST(SqlParserTest, ClassifiesMutations) {
  EXPECT_TRUE(is_mutation(parse_sql("INSERT INTO t (a) VALUES (1)")));
  EXPECT_TRUE(is_mutation(parse_sql("UPDATE t SET a = 1")));
  EXPECT_TRUE(is_mutation(parse_sql("DELETE FROM t")));
  EXPECT_FALSE(is_mutation(parse_sql("SELECT a FROM t")));
  EXPECT_EQ(target_table(parse_sql("SELECT a FROM tbl")), "tbl");
  EXPECT_EQ(target_table(parse_sql("COMMIT")), "");
}

TEST_F(DatabaseFixture, SelectAll) {
  const ResultSet rs = db.execute("SELECT * FROM users");
  EXPECT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"id", "name", "age"}));
}

TEST_F(DatabaseFixture, SelectWhereAndProjection) {
  const ResultSet rs = db.execute("SELECT name FROM users WHERE age > 30");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"name"}));
}

TEST_F(DatabaseFixture, SelectOrderByDescLimit) {
  const ResultSet rs = db.execute("SELECT name FROM users ORDER BY age DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_text(), "ada");
  EXPECT_EQ(rs.rows[1][0].as_text(), "cyd");
}

TEST_F(DatabaseFixture, PlaceholdersBindInOrder) {
  const ResultSet rs =
      db.execute("SELECT name FROM users WHERE age >= ? AND age <= ?", {SqlValue(25), SqlValue(31)});
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_THROW(db.execute("SELECT * FROM users WHERE id = ?"), SqlError);  // missing bind
}

TEST_F(DatabaseFixture, UpdateAffectsMatchingRows) {
  const ResultSet rs = db.execute("UPDATE users SET age = 40 WHERE name = 'bob'");
  EXPECT_EQ(rs.affected, 1u);
  EXPECT_EQ(db.execute("SELECT age FROM users WHERE name = 'bob'").rows[0][0].as_int(), 40);
}

TEST_F(DatabaseFixture, DeleteRemovesRows) {
  const ResultSet rs = db.execute("DELETE FROM users WHERE age < 30");
  EXPECT_EQ(rs.affected, 1u);
  EXPECT_EQ(db.execute("SELECT * FROM users").rows.size(), 2u);
}

TEST_F(DatabaseFixture, LikeInWhere) {
  const ResultSet rs = db.execute("SELECT name FROM users WHERE name LIKE '%d%'");
  EXPECT_EQ(rs.rows.size(), 2u);  // ada, cyd
}

TEST_F(DatabaseFixture, InsertWithoutColumnListUsesTableOrder) {
  db.execute("INSERT INTO users VALUES (4, 'dee', 28)");
  EXPECT_EQ(db.execute("SELECT * FROM users").rows.size(), 4u);
  EXPECT_THROW(db.execute("INSERT INTO users VALUES (5)"), SqlError);
}

TEST_F(DatabaseFixture, UnknownTableOrColumnThrows) {
  EXPECT_THROW(db.execute("SELECT * FROM ghosts"), SqlError);
  EXPECT_THROW(db.execute("SELECT ghost FROM users"), SqlError);
  EXPECT_THROW(db.execute("CREATE TABLE users (x)"), SqlError);  // duplicate
}

// ---- transactions (the shadow-execution mechanism of §III-C) ------------

TEST_F(DatabaseFixture, RollbackRestoresTables) {
  db.execute("START TRANSACTION");
  db.execute("INSERT INTO users (id, name, age) VALUES (9, 'tmp', 1)");
  db.execute("UPDATE users SET age = 99 WHERE id = 1");
  EXPECT_EQ(db.execute("SELECT * FROM users").rows.size(), 4u);
  db.execute("ROLLBACK");
  EXPECT_EQ(db.execute("SELECT * FROM users").rows.size(), 3u);
  EXPECT_EQ(db.execute("SELECT age FROM users WHERE id = 1").rows[0][0].as_int(), 36);
}

TEST_F(DatabaseFixture, RollbackDiscardsMutationLog) {
  db.execute("BEGIN");
  db.execute("INSERT INTO users (id, name, age) VALUES (9, 'tmp', 1)");
  db.execute("ROLLBACK");
  EXPECT_TRUE(db.drain_mutations().empty());
}

TEST_F(DatabaseFixture, CommitKeepsChangesAndLog) {
  db.execute("BEGIN");
  db.execute("INSERT INTO users (id, name, age) VALUES (9, 'tmp', 1)");
  db.execute("COMMIT");
  EXPECT_EQ(db.execute("SELECT * FROM users").rows.size(), 4u);
  EXPECT_EQ(db.drain_mutations().size(), 1u);
}

TEST_F(DatabaseFixture, TransactionErrors) {
  EXPECT_THROW(db.execute("COMMIT"), SqlError);
  EXPECT_THROW(db.execute("ROLLBACK"), SqlError);
  db.execute("BEGIN");
  EXPECT_THROW(db.execute("BEGIN"), SqlError);  // no nesting
  db.execute("ROLLBACK");
}

// ---- snapshots -----------------------------------------------------------

TEST_F(DatabaseFixture, SnapshotRestoreRoundTrip) {
  const json::Value snap = db.snapshot();
  db.execute("DELETE FROM users");
  db.execute("DROP TABLE users");
  db.restore(snap);
  EXPECT_EQ(db.execute("SELECT * FROM users").rows.size(), 3u);
  Database other;
  other.restore(snap);
  EXPECT_TRUE(db == other);
}

TEST_F(DatabaseFixture, RestorePreservesRidCounter) {
  const json::Value snap = db.snapshot();
  Database other;
  other.restore(snap);
  // New inserts in the restored DB must not collide with existing rids.
  other.execute("INSERT INTO users (id, name, age) VALUES (4, 'new', 20)");
  const auto muts = other.drain_mutations();
  ASSERT_EQ(muts.size(), 1u);
  EXPECT_GE(muts[0].rid, 4u);
}

TEST_F(DatabaseFixture, StateSizeTracksContent) {
  const std::uint64_t before = db.state_size_bytes();
  db.execute("INSERT INTO users (id, name, age) VALUES (10, 'someone-with-a-long-name', 50)");
  EXPECT_GT(db.state_size_bytes(), before);
}

// ---- mutation log + replication -----------------------------------------

TEST_F(DatabaseFixture, MutationLogCapturesKindsAndCells) {
  db.execute("INSERT INTO users (id, name, age) VALUES (4, 'dee', 28)");
  db.execute("UPDATE users SET age = 29 WHERE id = 4");
  db.execute("DELETE FROM users WHERE id = 4");
  const auto muts = db.drain_mutations();
  ASSERT_EQ(muts.size(), 3u);
  EXPECT_EQ(muts[0].kind, RowMutation::Kind::kInsert);
  EXPECT_EQ(muts[1].kind, RowMutation::Kind::kUpdate);
  EXPECT_EQ(muts[1].cells[2].as_int(), 29);
  EXPECT_EQ(muts[2].kind, RowMutation::Kind::kDelete);
  EXPECT_EQ(muts[0].rid, muts[2].rid);
}

TEST(DatabaseStampTest, StampsNeverCollideAcrossDatabases) {
  Database a, b;
  a.execute("CREATE TABLE t (k)");
  b.execute("CREATE TABLE t (k)");
  EXPECT_NE(a.table_epoch("t"), b.table_epoch("t"));  // same content history, new stamps
  a.execute("INSERT INTO t (k) VALUES (1)");

  Database copy;
  copy.execute("CREATE TABLE stale (k)");
  copy.execute("INSERT INTO stale (k) VALUES (9)");
  copy.sync_from(a);
  EXPECT_TRUE(copy == a);
  EXPECT_FALSE(copy.has_table("stale"));
  EXPECT_EQ(copy.table_epoch("t"), a.table_epoch("t"));  // a copied table keeps its stamp
  EXPECT_TRUE(copy.drain_mutations().empty());

  // The next touch in the copy gets a stamp no database has used.
  copy.execute("INSERT INTO t (k) VALUES (2)");
  const std::uint64_t touched = copy.table_epoch("t");
  EXPECT_NE(touched, a.table_epoch("t"));
  EXPECT_NE(touched, b.table_epoch("t"));
  a.execute("INSERT INTO t (k) VALUES (3)");
  EXPECT_NE(a.table_epoch("t"), touched);

  // Stamps differ, so a resync copies the table again.
  copy.sync_from(a);
  EXPECT_TRUE(copy == a);
  EXPECT_EQ(copy.execute("SELECT k FROM t").rows.size(), 2u);
}

TEST_F(DatabaseFixture, ReplicatedRowWritesStampButDoNotLog) {
  const std::uint64_t start = db.table_epoch("users");
  const std::uint64_t rid = db.insert_row("users", {SqlValue(4), SqlValue("dee"), SqlValue(40)});
  const std::uint64_t inserted = db.table_epoch("users");
  EXPECT_NE(inserted, start);
  EXPECT_TRUE(db.update_row("users", rid, {SqlValue(4), SqlValue("dee"), SqlValue(41)}));
  const std::uint64_t updated = db.table_epoch("users");
  EXPECT_NE(updated, inserted);
  EXPECT_TRUE(db.delete_row("users", rid));
  EXPECT_NE(db.table_epoch("users"), updated);

  // A missed row changes nothing, so it keeps the stamp.
  const std::uint64_t settled = db.table_epoch("users");
  EXPECT_FALSE(db.update_row("users", rid, {SqlValue(4), SqlValue("x"), SqlValue(1)}));
  EXPECT_FALSE(db.delete_row("users", rid));
  EXPECT_EQ(db.table_epoch("users"), settled);
  EXPECT_TRUE(db.drain_mutations().empty());
}

TEST_F(DatabaseFixture, ApplyReplicatedIsIdempotent) {
  RowMutation m{RowMutation::Kind::kInsert, "users", 77, {SqlValue(9), SqlValue("zed"), SqlValue(1)}};
  db.apply_replicated(m);
  db.apply_replicated(m);  // duplicate delivery
  EXPECT_EQ(db.execute("SELECT * FROM users WHERE id = 9").rows.size(), 1u);
  // Replicated application does not re-enter the mutation log.
  EXPECT_TRUE(db.drain_mutations().empty());
}

TEST_F(DatabaseFixture, ApplyReplicatedUpdateResurrects) {
  RowMutation m{RowMutation::Kind::kUpdate, "users", 88, {SqlValue(8), SqlValue("ghost"), SqlValue(2)}};
  db.apply_replicated(m);  // unknown rid: update-wins resurrect
  EXPECT_EQ(db.execute("SELECT * FROM users WHERE id = 8").rows.size(), 1u);
}

}  // namespace
}  // namespace edgstr::sqldb
