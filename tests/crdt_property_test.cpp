// Property-based CRDT suite: strong eventual consistency under random
// concurrent updates and delivery orders. Parameterized over seeds so each
// instantiation explores a different interleaving.
#include <gtest/gtest.h>

#include "crdt/json_doc.h"
#include "crdt/lww.h"
#include "crdt/table.h"
#include "util/rng.h"

namespace edgstr::crdt {
namespace {

class CrdtPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// ---- LwwMap: merge is commutative, associative, idempotent --------------

LwwMap random_lww(util::Rng& rng, const std::string& replica) {
  LwwMap m;
  const int ops = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < ops; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform_int(0, 4));
    const Stamp stamp{static_cast<std::uint64_t>(rng.uniform_int(1, 20)), replica};
    if (rng.chance(0.25)) {
      m.remove(key, stamp);
    } else {
      m.put(key, json::Value(static_cast<double>(rng.uniform_int(0, 99))), stamp);
    }
  }
  return m;
}

TEST_P(CrdtPropertyTest, LwwMapMergeCommutative) {
  util::Rng rng(GetParam());
  const LwwMap a = random_lww(rng, "a");
  const LwwMap b = random_lww(rng, "b");
  LwwMap ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
}

TEST_P(CrdtPropertyTest, LwwMapMergeAssociative) {
  util::Rng rng(GetParam() ^ 0x5555);
  const LwwMap a = random_lww(rng, "a");
  const LwwMap b = random_lww(rng, "b");
  const LwwMap c = random_lww(rng, "c");
  LwwMap left = a;   // (a ∪ b) ∪ c
  left.merge(b);
  left.merge(c);
  LwwMap bc = b;     // a ∪ (b ∪ c)
  bc.merge(c);
  LwwMap right = a;
  right.merge(bc);
  EXPECT_TRUE(left == right);
}

TEST_P(CrdtPropertyTest, LwwMapMergeIdempotent) {
  util::Rng rng(GetParam() ^ 0xaaaa);
  const LwwMap a = random_lww(rng, "a");
  const LwwMap b = random_lww(rng, "b");
  LwwMap once = a, twice = a;
  once.merge(b);
  twice.merge(b);
  twice.merge(b);
  EXPECT_TRUE(once == twice);
}

// ---- CrdtJson: convergence under random op exchange ------------------------

TEST_P(CrdtPropertyTest, CrdtJsonThreeReplicasConvergeViaStar) {
  util::Rng rng(GetParam());
  CrdtJson cloud("cloud"), e0("e0"), e1("e1");
  const json::Value base = json::Value::object({{"v", 0}});
  cloud.initialize(base);
  e0.initialize(base);
  e1.initialize(base);

  CrdtJson* replicas[3] = {&cloud, &e0, &e1};
  for (int round = 0; round < 6; ++round) {
    // Random local writes.
    for (CrdtJson* r : replicas) {
      const int writes = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < writes; ++i) {
        r->set("k" + std::to_string(rng.uniform_int(0, 4)),
               json::Value(static_cast<double>(rng.uniform_int(0, 999))));
      }
    }
    // Star exchange in random edge order.
    std::vector<CrdtJson*> edges = {&e0, &e1};
    rng.shuffle(edges);
    for (CrdtJson* edge : edges) {
      cloud.applyChanges(edge->getChanges(cloud.version()));
      edge->applyChanges(cloud.getChanges(edge->version()));
    }
  }
  // One final full exchange to flush stragglers.
  for (CrdtJson* edge : {&e0, &e1}) {
    cloud.applyChanges(edge->getChanges(cloud.version()));
  }
  for (CrdtJson* edge : {&e0, &e1}) {
    edge->applyChanges(cloud.getChanges(edge->version()));
  }
  EXPECT_TRUE(e0.converged_with(cloud));
  EXPECT_TRUE(e1.converged_with(cloud));
  EXPECT_TRUE(e0.converged_with(e1));
}

// ---- CrdtTable: convergence with random SQL workloads ----------------------

TEST_P(CrdtPropertyTest, CrdtTableReplicasConvergeUnderRandomWorkload) {
  util::Rng rng(GetParam());
  sqldb::Database seed;
  seed.execute("CREATE TABLE t (k, v)");
  seed.execute("INSERT INTO t (k, v) VALUES ('seed', 0)");
  const json::Value snap = seed.snapshot();

  sqldb::Database d_cloud, d_e0, d_e1;
  CrdtTable cloud("cloud", &d_cloud), e0("e0", &d_e0), e1("e1", &d_e1);
  cloud.initialize(snap);
  e0.initialize(snap);
  e1.initialize(snap);

  struct Rep {
    sqldb::Database* db;
    CrdtTable* table;
  };
  std::vector<Rep> reps = {{&d_e0, &e0}, {&d_e1, &e1}, {&d_cloud, &cloud}};

  for (int round = 0; round < 5; ++round) {
    for (auto& rep : reps) {
      const int ops = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < ops; ++i) {
        const double roll = rng.next_double();
        if (roll < 0.6) {
          rep.db->execute("INSERT INTO t (k, v) VALUES (?, ?)",
                          {sqldb::SqlValue("k" + std::to_string(rng.uniform_int(0, 50))),
                           sqldb::SqlValue(rng.uniform_int(0, 9))});
        } else if (roll < 0.85) {
          rep.db->execute("UPDATE t SET v = ? WHERE k = 'seed'",
                          {sqldb::SqlValue(rng.uniform_int(10, 99))});
        } else {
          rep.db->execute("DELETE FROM t WHERE v = ?", {sqldb::SqlValue(rng.uniform_int(0, 9))});
        }
      }
      rep.table->record_local_mutations();
    }
    for (CrdtTable* edge : {&e0, &e1}) {
      cloud.applyChanges(edge->getChanges(cloud.version()));
      edge->applyChanges(cloud.getChanges(edge->version()));
    }
  }
  // Final flush.
  for (CrdtTable* edge : {&e0, &e1}) cloud.applyChanges(edge->getChanges(cloud.version()));
  for (CrdtTable* edge : {&e0, &e1}) edge->applyChanges(cloud.getChanges(edge->version()));

  EXPECT_TRUE(e0.converged_with(cloud));
  EXPECT_TRUE(e1.converged_with(cloud));
  // Materialized databases agree on live content.
  EXPECT_EQ(d_e0.execute("SELECT * FROM t").rows.size(),
            d_cloud.execute("SELECT * FROM t").rows.size());
  EXPECT_EQ(d_e1.execute("SELECT * FROM t").rows.size(),
            d_cloud.execute("SELECT * FROM t").rows.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrdtPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace edgstr::crdt
// NOTE: appended suite — ReplicatedDoc-uniform properties.
//
// CrdtTable, CrdtFiles, and CrdtJson each get bespoke coverage above, but
// the replication plane only ever sees them through crdt::ReplicatedDoc.
// This suite drives all three through that one interface: seeded random
// mutations on the backing view harvested by record_local(), op batches
// shipped via changes_since()/apply() in shuffled (sender, receiver)
// orders with some batches held back a round (commutativity: delivery
// order must not matter), deliberate duplicate delivery mid-run and a
// whole-log re-delivery at the end (idempotence), and state_digest()
// equality across replicas after the flush (convergence). Every
// expectation carries the failing seed for replay.
#include <functional>
#include <utility>

#include "crdt/files.h"

namespace edgstr::crdt {
namespace {

/// One replica seen purely through the uniform interface, plus a
/// type-specific hook that performs one random mutation on its backing
/// view (SQL statement, VFS write, JSON set, ...).
struct UniformReplica {
  ReplicatedDoc* doc = nullptr;
  std::function<void(util::Rng&)> mutate;
};

struct JsonFleet {
  CrdtJson cloud{"cloud"}, e0{"e0"}, e1{"e1"};
  std::vector<UniformReplica> reps;
  JsonFleet() {
    const json::Value base = json::Value::object({{"v", 0.0}});
    for (CrdtJson* d : {&cloud, &e0, &e1}) {
      d->initialize(base);
      reps.push_back({d, [d](util::Rng& rng) {
                        d->set("k" + std::to_string(rng.uniform_int(0, 4)),
                               json::Value(double(rng.uniform_int(0, 999))));
                      }});
    }
  }
};

struct TableFleet {
  sqldb::Database d_cloud, d_e0, d_e1;
  CrdtTable cloud{"cloud", &d_cloud}, e0{"e0", &d_e0}, e1{"e1", &d_e1};
  std::vector<UniformReplica> reps;
  TableFleet() {
    sqldb::Database seed;
    seed.execute("CREATE TABLE t (k, v)");
    seed.execute("INSERT INTO t (k, v) VALUES ('seed', 0)");
    const json::Value snap = seed.snapshot();
    const std::pair<sqldb::Database*, CrdtTable*> all[] = {
        {&d_cloud, &cloud}, {&d_e0, &e0}, {&d_e1, &e1}};
    for (const auto& [db, table] : all) {
      table->initialize(snap);
      reps.push_back({table, [db = db](util::Rng& rng) {
                        const double roll = rng.next_double();
                        if (roll < 0.6) {
                          db->execute("INSERT INTO t (k, v) VALUES (?, ?)",
                                      {sqldb::SqlValue("k" + std::to_string(rng.uniform_int(0, 30))),
                                       sqldb::SqlValue(rng.uniform_int(0, 9))});
                        } else if (roll < 0.85) {
                          db->execute("UPDATE t SET v = ? WHERE k = 'seed'",
                                      {sqldb::SqlValue(rng.uniform_int(10, 99))});
                        } else {
                          db->execute("DELETE FROM t WHERE v = ?",
                                      {sqldb::SqlValue(rng.uniform_int(0, 9))});
                        }
                      }});
    }
  }
};

struct FilesFleet {
  vfs::Vfs f_cloud, f_e0, f_e1;
  CrdtFiles cloud{"cloud", &f_cloud}, e0{"e0", &f_e0}, e1{"e1", &f_e1};
  std::vector<UniformReplica> reps;
  FilesFleet() {
    vfs::Vfs seed;
    seed.write("data/readme.txt", "init");
    seed.write("data/events.log", "t0\n");
    const json::Value snap = seed.snapshot();
    const std::pair<vfs::Vfs*, CrdtFiles*> all[] = {
        {&f_cloud, &cloud}, {&f_e0, &e0}, {&f_e1, &e1}};
    for (const auto& [fs, files] : all) {
      files->initialize(snap);
      reps.push_back({files, [fs = fs](util::Rng& rng) {
                        const double roll = rng.next_double();
                        if (roll < 0.5) {
                          fs->write("data/f" + std::to_string(rng.uniform_int(0, 3)) + ".txt",
                                    rng.token(6));
                        } else if (roll < 0.8) {
                          fs->append("data/events.log", rng.token(4) + "\n");
                        } else {
                          fs->remove("data/f" + std::to_string(rng.uniform_int(0, 3)) + ".txt");
                        }
                      }});
    }
  }
};

/// The uniform driver: everything below this line touches the docs only
/// through the ReplicatedDoc interface.
void drive_uniform_properties(std::vector<UniformReplica>& reps, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = reps.size();

  for (int round = 0; round < 6; ++round) {
    for (UniformReplica& r : reps) {
      const int muts = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < muts; ++i) r.mutate(rng);
      r.doc->record_local();
    }
    // Ship batches in a shuffled (sender, receiver) order and hold some
    // back a round: if delivery order mattered, digests would diverge.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a != b) pairs.emplace_back(a, b);
      }
    }
    rng.shuffle(pairs);
    for (const auto& [from, to] : pairs) {
      if (rng.chance(0.25)) continue;
      const std::vector<Op> batch = reps[from].doc->changes_since(reps[to].doc->version());
      reps[to].doc->apply(batch);
      if (rng.chance(0.3)) {
        // Duplicate delivery mid-run: apply must be a no-op the second time.
        const std::string digest = reps[to].doc->state_digest();
        EXPECT_EQ(reps[to].doc->apply(batch), 0u) << "seed " << seed << " round " << round;
        EXPECT_EQ(reps[to].doc->state_digest(), digest) << "seed " << seed << " round " << round;
      }
    }
  }

  // Flush: one all-pairs pass delivers every retained op directly; the
  // second catches anything relayed into a replica late in the first.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a != b) reps[b].doc->apply(reps[a].doc->changes_since(reps[b].doc->version()));
      }
    }
  }

  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(reps[i].doc->state_digest(), reps[0].doc->state_digest())
        << "seed " << seed << ": replica " << i << " diverged";
  }

  // Whole-log re-delivery is a no-op: the strongest idempotence check the
  // interface allows without reaching into a concrete type.
  const std::vector<Op> everything = reps[0].doc->changes_since(VersionVector{});
  const std::string before = reps[1].doc->state_digest();
  EXPECT_EQ(reps[1].doc->apply(everything), 0u) << "seed " << seed;
  EXPECT_EQ(reps[1].doc->state_digest(), before) << "seed " << seed;
}

class ReplicatedDocPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicatedDocPropertyTest, CrdtJsonHoldsUniformProperties) {
  JsonFleet fleet;
  drive_uniform_properties(fleet.reps, GetParam());
}

TEST_P(ReplicatedDocPropertyTest, CrdtTableHoldsUniformProperties) {
  TableFleet fleet;
  drive_uniform_properties(fleet.reps, GetParam());
}

TEST_P(ReplicatedDocPropertyTest, CrdtFilesHoldsUniformProperties) {
  FilesFleet fleet;
  drive_uniform_properties(fleet.reps, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatedDocPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace edgstr::crdt
