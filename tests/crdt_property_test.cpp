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
  EXPECT_EQ(e0.state_digest(), cloud.state_digest());
  EXPECT_EQ(e1.state_digest(), cloud.state_digest());
  EXPECT_EQ(e0.state_digest(), e1.state_digest());
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

  EXPECT_EQ(e0.state_digest(), cloud.state_digest());
  EXPECT_EQ(e1.state_digest(), cloud.state_digest());
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
#include "json/parse.h"

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

// ---- state_hash(): the incremental convergence word tracks the oracle ------
//
// Every doc keeps state_hash() current in O(changed entries), and the
// replication plane compares those words instead of state_digest()
// strings. These cases drive each type through seeded random steps — local
// writes and deletes, remote apply, all-pairs flushes, compaction, crash
// re-initialization, snapshot install and bootstrap restore — and after
// every step check each replica's hash against (a) a fresh replica rebuilt
// with restore_bootstrap(bootstrap_state()) and (b) a recompute from its
// state_digest(); and that hash equality between any two replicas holds
// exactly when their digests are equal.

/// Sum of entry_hash over the digest's (key, value) pairs: the hash
/// recomputed from the oracle alone. Files hash raw contents; the LWW docs
/// hash each value's JSON form.
std::uint64_t hash_of_digest(const std::string& digest, bool raw_strings) {
  const json::Value view = json::parse(digest);
  std::uint64_t sum = 0;
  for (const auto& [key, value] : view.as_object()) {
    sum += entry_hash(key, raw_strings ? value.as_string() : value.dump());
  }
  return sum;
}

struct HashedReplica {
  ReplicatedDoc* doc = nullptr;
  std::function<void(util::Rng&)> mutate;       ///< one local write or delete
  std::function<void()> reinitialize;           ///< crash: reborn from the checkpoint
  std::function<std::uint64_t()> rebuilt_hash;  ///< fresh replica + restore_bootstrap
};

/// Returns how many replica pairs currently hold equal digests, so the
/// driver can check that the "equal" side of the relation was exercised.
std::size_t expect_hashes_track_digests(const std::vector<HashedReplica>& reps,
                                        bool raw_strings, const std::string& where) {
  std::vector<std::uint64_t> hashes;
  std::vector<std::string> digests;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    hashes.push_back(reps[i].doc->state_hash());
    digests.push_back(reps[i].doc->state_digest());
    EXPECT_EQ(hashes[i], reps[i].rebuilt_hash()) << where << ": replica " << i << " vs rebuilt";
    EXPECT_EQ(hashes[i], hash_of_digest(digests[i], raw_strings))
        << where << ": replica " << i << " vs digest";
  }
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (std::size_t j = i + 1; j < reps.size(); ++j) {
      EXPECT_EQ(hashes[i] == hashes[j], digests[i] == digests[j])
          << where << ": replicas " << i << "," << j;
      if (digests[i] == digests[j]) ++equal_pairs;
    }
  }
  return equal_pairs;
}

void drive_state_hash(std::vector<HashedReplica>& reps, bool raw_strings, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = reps.size();
  std::vector<int> lives(n, 0);
  std::size_t equal_pairs = 0;
  const auto reborn = [&](std::size_t i) {
    reps[i].reinitialize();
    // A reborn replica mints under a fresh origin (see set_origin).
    reps[i].doc->set_origin("r" + std::to_string(i) + "~" + std::to_string(++lives[i]));
  };
  const auto deliver = [&](std::size_t from, std::size_t to) {
    if (reps[from].doc->can_serve(reps[to].doc->version())) {
      reps[to].doc->apply(reps[from].doc->changes_since(reps[to].doc->version()));
    }
  };
  for (int step = 0; step < 60; ++step) {
    const std::size_t a = std::size_t(rng.uniform_int(0, std::int64_t(n) - 1));
    const std::size_t b = (a + std::size_t(rng.uniform_int(1, std::int64_t(n) - 1))) % n;
    const double roll = rng.next_double();
    std::string what;
    if (roll < 0.40) {
      what = "local";
      reps[a].mutate(rng);
      reps[a].doc->record_local();
    } else if (roll < 0.62) {
      what = "apply";
      deliver(b, a);
    } else if (roll < 0.74) {
      what = "flush";
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t from = 0; from < n; ++from) {
          for (std::size_t to = 0; to < n; ++to) {
            if (from != to) deliver(from, to);
          }
        }
      }
    } else if (roll < 0.82) {
      what = "compact";
      VersionVector acked = reps[0].doc->version();
      for (std::size_t i = 1; i < n; ++i) acked = version_min(acked, reps[i].doc->version());
      for (HashedReplica& r : reps) r.doc->compact(acked);
    } else if (roll < 0.89) {
      what = "snapshot";
      const Snapshot snap = reps[b].doc->cut_snapshot();
      reborn(a);
      reps[a].doc->install_snapshot(snap);
    } else if (roll < 0.96) {
      what = "bootstrap";
      const json::Value state = reps[b].doc->bootstrap_state();
      reborn(a);
      reps[a].doc->restore_bootstrap(state);
    } else {
      what = "reinit";
      reborn(a);
    }
    const std::size_t equal = expect_hashes_track_digests(
        reps, raw_strings,
        "seed " + std::to_string(seed) + " step " + std::to_string(step) + " (" + what + ")");
    if (what == "flush") equal_pairs += equal;
  }
  // Replicas that reached equal state through different histories.
  EXPECT_GT(equal_pairs, 0u) << "seed " << seed << ": no flush left two replicas equal";
}

class StateHashPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateHashPropertyTest, LwwMapHashTracksDigest) {
  util::Rng rng(GetParam());
  std::vector<LwwMap> maps(3);
  for (int step = 0; step < 80; ++step) {
    const std::size_t a = std::size_t(rng.uniform_int(0, 2));
    const std::string key = "k" + std::to_string(rng.uniform_int(0, 5));
    const Stamp stamp{std::uint64_t(rng.uniform_int(1, 40)), "m" + std::to_string(a)};
    const double roll = rng.next_double();
    if (roll < 0.45) {
      const json::Value value =
          rng.chance(0.5) ? json::Value(double(rng.uniform_int(0, 9)))
                          : json::Value::object({{"s", rng.token(3)}, {"n", 1.0}});
      maps[a].put(key, value, stamp);
    } else if (roll < 0.65) {
      maps[a].remove(key, stamp);
    } else if (roll < 0.92) {
      maps[a].merge(maps[(a + 1 + std::size_t(rng.uniform_int(0, 1))) % 3]);
    } else {
      maps[a] = LwwMap::from_json(maps[a].to_json());
    }
    for (std::size_t i = 0; i < maps.size(); ++i) {
      EXPECT_EQ(maps[i].state_hash(), LwwMap::from_json(maps[i].to_json()).state_hash())
          << "seed " << GetParam() << " step " << step;
      EXPECT_EQ(maps[i].state_hash(), hash_of_digest(maps[i].digest(), false))
          << "seed " << GetParam() << " step " << step;
      EXPECT_EQ(maps[i].live_size(), maps[i].keys().size())
          << "seed " << GetParam() << " step " << step;
      for (std::size_t j = i + 1; j < maps.size(); ++j) {
        EXPECT_EQ(maps[i].state_hash() == maps[j].state_hash(),
                  maps[i].digest() == maps[j].digest())
            << "seed " << GetParam() << " step " << step;
      }
    }
  }
}

TEST_P(StateHashPropertyTest, CrdtJsonHashTracksDigest) {
  const json::Value base = json::Value::object({{"v", 0.0}, {"w", "init"}});
  CrdtJson docs[3] = {CrdtJson("r0"), CrdtJson("r1"), CrdtJson("r2")};
  std::vector<HashedReplica> reps;
  for (CrdtJson& d : docs) {
    d.initialize(base);
    reps.push_back({&d,
                    [&d](util::Rng& rng) {
                      const std::string key = "k" + std::to_string(rng.uniform_int(0, 4));
                      if (rng.chance(0.25)) {
                        d.remove(key);
                      } else {
                        d.set(key, json::Value(double(rng.uniform_int(0, 99))));
                      }
                    },
                    [&d, &base] { d.initialize(base); },
                    [&d, &base] {
                      CrdtJson fresh("rebuilt");
                      fresh.initialize(base);
                      fresh.restore_bootstrap(d.bootstrap_state());
                      return fresh.state_hash();
                    }});
  }
  drive_state_hash(reps, false, GetParam());
}

TEST_P(StateHashPropertyTest, CrdtTableHashTracksDigest) {
  sqldb::Database seed;
  seed.execute("CREATE TABLE t (k, v)");
  seed.execute("INSERT INTO t (k, v) VALUES ('seed', 0)");
  const json::Value snap = seed.snapshot();
  sqldb::Database dbs[3];
  CrdtTable tables[3] = {CrdtTable("r0", &dbs[0]), CrdtTable("r1", &dbs[1]),
                         CrdtTable("r2", &dbs[2])};
  std::vector<HashedReplica> reps;
  for (std::size_t i = 0; i < 3; ++i) {
    sqldb::Database* db = &dbs[i];
    CrdtTable* table = &tables[i];
    table->initialize(snap);
    reps.push_back({table,
                    [db](util::Rng& rng) {
                      const double roll = rng.next_double();
                      if (roll < 0.55) {
                        db->execute("INSERT INTO t (k, v) VALUES (?, ?)",
                                    {sqldb::SqlValue("k" + std::to_string(rng.uniform_int(0, 30))),
                                     sqldb::SqlValue(rng.uniform_int(0, 9))});
                      } else if (roll < 0.8) {
                        db->execute("UPDATE t SET v = ? WHERE k = 'seed'",
                                    {sqldb::SqlValue(rng.uniform_int(10, 99))});
                      } else {
                        db->execute("DELETE FROM t WHERE v = ?",
                                    {sqldb::SqlValue(rng.uniform_int(0, 9))});
                      }
                    },
                    [table, &snap] { table->initialize(snap); },
                    [table, &snap] {
                      sqldb::Database db;
                      CrdtTable fresh("rebuilt", &db);
                      fresh.initialize(snap);
                      fresh.restore_bootstrap(table->bootstrap_state());
                      return fresh.state_hash();
                    }});
  }
  drive_state_hash(reps, false, GetParam());
}

TEST_P(StateHashPropertyTest, CrdtFilesHashTracksDigest) {
  vfs::Vfs seed;
  seed.write("data/readme.txt", "init");
  seed.write("data/events.log", "t0\n");
  const json::Value snap = seed.snapshot();
  vfs::Vfs trees[3];
  CrdtFiles files[3] = {CrdtFiles("r0", &trees[0]), CrdtFiles("r1", &trees[1]),
                        CrdtFiles("r2", &trees[2])};
  std::vector<HashedReplica> reps;
  for (std::size_t i = 0; i < 3; ++i) {
    vfs::Vfs* fs = &trees[i];
    CrdtFiles* doc = &files[i];
    doc->initialize(snap);
    reps.push_back({doc,
                    [fs](util::Rng& rng) {
                      const double roll = rng.next_double();
                      if (roll < 0.3) {
                        fs->write("data/f" + std::to_string(rng.uniform_int(0, 3)) + ".txt",
                                  rng.token(6));
                      } else if (roll < 0.65) {
                        // Append-merge path: harvested as an append op.
                        fs->append("data/events.log", rng.token(4) + "\n");
                      } else if (roll < 0.8) {
                        // Rewrite of the log: a put that supersedes its tail.
                        fs->write("data/events.log", rng.token(5) + "\n");
                      } else if (roll < 0.95) {
                        fs->remove("data/f" + std::to_string(rng.uniform_int(0, 3)) + ".txt");
                      } else {
                        fs->remove("data/events.log");
                      }
                    },
                    [doc, &snap] { doc->initialize(snap); },
                    [doc, &snap] {
                      vfs::Vfs fs;
                      CrdtFiles fresh("rebuilt", &fs);
                      fresh.initialize(snap);
                      fresh.restore_bootstrap(doc->bootstrap_state());
                      return fresh.state_hash();
                    }});
  }
  drive_state_hash(reps, true, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateHashPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

}  // namespace
}  // namespace edgstr::crdt
