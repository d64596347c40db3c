#include <gtest/gtest.h>

#include "util/hash.h"
#include "vfs/vfs.h"

namespace edgstr::vfs {
namespace {

TEST(VfsTest, WriteReadRoundTrip) {
  Vfs fs;
  fs.write("data/a.txt", "hello");
  EXPECT_TRUE(fs.exists("data/a.txt"));
  EXPECT_EQ(fs.read("data/a.txt"), "hello");
}

TEST(VfsTest, ReadMissingThrows) {
  Vfs fs;
  EXPECT_THROW(fs.read("ghost"), std::out_of_range);
}

TEST(VfsTest, AppendCreatesAndExtends) {
  Vfs fs;
  fs.append("log", "a");
  fs.append("log", "b");
  EXPECT_EQ(fs.read("log"), "ab");
}

TEST(VfsTest, VersionBumpsOnEveryWrite) {
  Vfs fs;
  EXPECT_EQ(fs.version("f"), 0u);
  fs.write("f", "1");
  EXPECT_EQ(fs.version("f"), 1u);
  fs.append("f", "2");
  EXPECT_EQ(fs.version("f"), 2u);
  fs.write("f", "3");
  EXPECT_EQ(fs.version("f"), 3u);
}

TEST(VfsTest, RemoveReportsExistence) {
  Vfs fs;
  fs.write("f", "x");
  EXPECT_TRUE(fs.remove("f"));
  EXPECT_FALSE(fs.remove("f"));
  EXPECT_FALSE(fs.exists("f"));
}

TEST(VfsTest, FingerprintTracksContent) {
  Vfs fs;
  fs.write("f", "abc");
  const std::uint64_t fp1 = fs.fingerprint("f");
  fs.write("f", "abd");
  EXPECT_NE(fs.fingerprint("f"), fp1);
  EXPECT_EQ(fs.fingerprint("missing"), 0u);
}

TEST(VfsTest, TotalBytesAndList) {
  Vfs fs;
  fs.write("a", "12345");
  fs.write("b", "123");
  EXPECT_EQ(fs.total_bytes(), 8u);
  EXPECT_EQ(fs.list(), (std::vector<std::string>{"a", "b"}));
}

TEST(VfsTest, AccessTrackingRecordsKinds) {
  Vfs fs;
  fs.write("a", "1");
  fs.start_tracking();
  fs.read("a");
  fs.write("b", "2");
  fs.append("b", "3");
  fs.remove("a");
  const auto accesses = fs.stop_tracking();
  ASSERT_EQ(accesses.size(), 4u);
  EXPECT_EQ(accesses[0].kind, FileAccess::Kind::kRead);
  EXPECT_EQ(accesses[1].kind, FileAccess::Kind::kWrite);
  EXPECT_EQ(accesses[2].kind, FileAccess::Kind::kAppend);
  EXPECT_EQ(accesses[3].kind, FileAccess::Kind::kRemove);
  // Tracking stopped: no further records.
  fs.write("c", "4");
  EXPECT_FALSE(fs.tracking());
}

TEST(VfsTest, SnapshotRestoreRoundTrip) {
  Vfs fs;
  fs.write("m/model.bin", "weights");
  fs.write("d/log.txt", "entry1");
  const json::Value snap = fs.snapshot();
  fs.write("d/log.txt", "changed");
  fs.write("extra", "x");
  fs.restore(snap);
  EXPECT_EQ(fs.read("d/log.txt"), "entry1");
  EXPECT_FALSE(fs.exists("extra"));
  Vfs other;
  other.restore(snap);
  EXPECT_TRUE(fs == other);
}

TEST(VfsTest, ComponentSnapshotsShareUnchangedBodies) {
  Vfs fs;
  fs.write("models/m.bin", std::string(1 << 16, 'w'));
  fs.write("data/log.txt", "entry1");
  const std::vector<FileComponent> first = fs.component_snapshots();
  const std::vector<FileComponent> second = fs.component_snapshots();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].path, second[i].path);
    EXPECT_EQ(first[i].value, second[i].value) << first[i].path;  // same shared value
    EXPECT_EQ(first[i].epoch, second[i].epoch);
  }

  fs.append("data/log.txt", "+entry2");
  const std::vector<FileComponent> third = fs.component_snapshots();
  ASSERT_EQ(third.size(), 2u);
  EXPECT_EQ(third[1].path, "models/m.bin");
  EXPECT_EQ(third[1].value, first[1].value);  // untouched: still shared
  EXPECT_EQ(third[0].path, "data/log.txt");
  EXPECT_NE(third[0].value, first[0].value);
  EXPECT_NE(third[0].epoch, first[0].epoch);
  EXPECT_EQ(*third[0].value, json::Value::object({{"contents", "entry1+entry2"},
                                                  {"version", 2}}));
  EXPECT_EQ((*first[0].value)["contents"].as_string(), "entry1");  // the old value is intact
  EXPECT_EQ(*third[0].value, fs.snapshot()["data/log.txt"]);
}

TEST(VfsTest, CopyFromSubset) {
  Vfs src;
  src.write("keep", "k");
  src.write("skip", "s");
  Vfs dst;
  dst.copy_from(src, {"keep", "nonexistent"});
  EXPECT_TRUE(dst.exists("keep"));
  EXPECT_FALSE(dst.exists("skip"));
}

TEST(VfsTest, SyncFromCopiesChangedEntriesAndKeepsTheirStamps) {
  Vfs src;
  src.write("models/m.bin", std::string(1 << 16, 'w'));
  src.write("data/log.txt", "entry1");
  Vfs dst;
  dst.write("extra", "gone after sync");
  dst.sync_from(src);
  EXPECT_TRUE(dst == src);
  EXPECT_FALSE(dst.exists("extra"));
  for (const std::string& path : src.list()) {
    EXPECT_EQ(dst.entry_epoch(path), src.entry_epoch(path)) << path;
    EXPECT_EQ(dst.read_text(path), src.read_text(path)) << path;  // the body is shared
  }

  dst.append("data/log.txt", "+shadow");  // a local write gets a fresh stamp...
  EXPECT_NE(dst.entry_epoch("data/log.txt"), src.entry_epoch("data/log.txt"));
  src.write("models/m.bin", "retrained");
  dst.sync_from(src);  // ...so the next sync undoes it
  EXPECT_TRUE(dst == src);
  EXPECT_EQ(dst.read("data/log.txt"), "entry1");
  EXPECT_EQ(dst.read("models/m.bin"), "retrained");
}

TEST(VfsTest, PathClassifier) {
  EXPECT_TRUE(Vfs::looks_like_path("models/det.bin"));
  EXPECT_TRUE(Vfs::looks_like_path("data/notes.log"));
  EXPECT_TRUE(Vfs::looks_like_path("/etc/conf.d/app"));
  EXPECT_TRUE(Vfs::looks_like_path("./rel.txt"));
  EXPECT_TRUE(Vfs::looks_like_path("https://host/file.bin"));
  EXPECT_FALSE(Vfs::looks_like_path("SELECT * FROM t"));
  EXPECT_FALSE(Vfs::looks_like_path("hello world"));
  EXPECT_FALSE(Vfs::looks_like_path(""));
}

TEST(VfsTest, EqualityComparesContents) {
  Vfs a, b;
  a.write("f", "same");
  b.write("f", "same");
  EXPECT_TRUE(a == b);
  b.write("f", "diff");
  EXPECT_FALSE(a == b);
  b.write("f", "same");
  b.write("g", "extra");
  EXPECT_FALSE(a == b);
}

TEST(VfsTest, AppendGrowsASoleOwnedBodyInPlace) {
  Vfs fs;
  fs.write("notes.log", "a");
  const util::Text* sole = fs.read_text("notes.log").get();
  for (int i = 0; i < 100; ++i) fs.append("notes.log", "b");
  EXPECT_EQ(fs.read_text("notes.log").get(), sole);
  EXPECT_EQ(fs.read("notes.log"), "a" + std::string(100, 'b'));
}

TEST(VfsTest, AppendAndWriteNeverChangeAHeldBody) {
  Vfs fs;
  fs.write("f", "one");
  const util::TextPtr held = fs.read_text("f");
  fs.append("f", "+two");
  EXPECT_EQ(held->str(), "one");
  EXPECT_NE(fs.read_text("f"), held);
  const util::TextPtr held2 = fs.read_text("f");
  fs.write("f", "three");
  EXPECT_EQ(held2->str(), "one+two");
  EXPECT_EQ(fs.read("f"), "three");
}

TEST(VfsTest, WriteStoresTheGivenBody) {
  Vfs fs;
  const util::TextPtr body = util::make_text("shared");
  fs.write("f", body);
  EXPECT_EQ(fs.read_text("f"), body);
  Vfs copy;
  copy.copy_from(fs, {"f"});
  EXPECT_EQ(copy.read_text("f"), body);
  copy.append("f", "!");  // shared with `fs`: copy-on-write
  EXPECT_EQ(fs.read("f"), "shared");
  EXPECT_EQ(copy.read("f"), "shared!");
}

TEST(VfsTest, FingerprintMatchesContentsAfterMixedWrites) {
  // Seeded mix of writes, appends (sole-owned and shared bodies) and
  // removes; the cached fingerprint must always equal a fresh hash.
  Vfs fs;
  std::vector<std::pair<util::TextPtr, std::string>> held;  // body, contents when read
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const std::string paths[] = {"a.log", "b.txt", "c.bin"};
  for (int step = 0; step < 600; ++step) {
    const std::string& path = paths[next() % 3];
    const std::size_t length = next() % 7;
    const std::string data(length, static_cast<char>('a' + next() % 26));
    switch (next() % 6) {
      case 0: fs.write(path, data); break;
      case 1: fs.write(path, util::make_text(data)); break;
      case 2:
      case 3: fs.append(path, data); break;
      case 4:
        if (fs.exists(path)) held.emplace_back(fs.read_text(path), fs.read(path));
        break;
      default:
        if (next() % 4 == 0) fs.remove(path);
        break;
    }
    if (held.size() > 4) held.erase(held.begin());
    for (const std::string& p : paths) {
      if (!fs.exists(p)) continue;
      ASSERT_EQ(fs.fingerprint(p), util::content_hash(fs.read(p))) << "step " << step << " " << p;
    }
    for (const auto& [body, contents] : held) ASSERT_EQ(body->str(), contents) << "step " << step;
  }
  for (const auto& [body, contents] : held) EXPECT_EQ(body->hash(), util::content_hash(contents));
}

}  // namespace
}  // namespace edgstr::vfs
