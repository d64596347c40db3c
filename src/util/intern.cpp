#include "util/intern.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/strings.h"

namespace edgstr::util {

namespace {

// The table is sharded by string hash so concurrent interning from
// different threads rarely touches the same mutex, and the symbol -> string
// direction (the hot read path: every event-record format, datalog
// compare, printer lookup) is lock-free: a spine of atomically published
// fixed-size pointer blocks, indexed directly by symbol id. An uncontended
// shard mutex is a single CAS, so a single-threaded caller pays no more
// than a shared_mutex fast path would.
//
// Determinism note: ids are handed out in first-intern order from one
// global counter, so two runs assign identical ids only if first-interns
// happen in the same order. The simulation stack interns on one thread,
// so its order is fixed by the program it runs.

constexpr std::size_t kShardCount = 16;  // power of two
constexpr std::size_t kBlockBits = 12;
constexpr std::size_t kBlockSize = std::size_t(1) << kBlockBits;  // symbols per block
constexpr std::size_t kSpineSize = 4096;  // kSpineSize * kBlockSize ids max

using Slot = std::atomic<const std::string*>;

struct Shard {
  std::mutex mutex;
  // deque keeps element addresses stable as the shard grows, so the
  // string_view keys and the references handed out never dangle.
  std::deque<std::string> strings;
  std::unordered_map<std::string_view, Symbol> ids;
};

struct InternTable {
  Shard shards[kShardCount];
  std::atomic<Slot*> spine[kSpineSize] = {};
  std::atomic<std::uint32_t> next_id{1};
  std::string empty;  // slot 0 = kNoSymbol = ""

  InternTable() {
    Slot* block = new Slot[kBlockSize]();
    block[0].store(&empty, std::memory_order_relaxed);
    spine[0].store(block, std::memory_order_release);
  }
};

InternTable& table() {
  static InternTable* t = new InternTable();  // leaked: symbols live forever
  return *t;
}

Slot* block_for(InternTable& t, std::size_t block_index) {
  Slot* block = t.spine[block_index].load(std::memory_order_acquire);
  if (block) return block;
  Slot* fresh = new Slot[kBlockSize]();
  if (t.spine[block_index].compare_exchange_strong(block, fresh, std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
    return fresh;
  }
  delete[] fresh;  // another thread installed the block first
  return block;
}

const std::string* lookup(Symbol sym) {
  InternTable& t = table();
  for (;;) {
    Slot* block = t.spine[sym >> kBlockBits].load(std::memory_order_acquire);
    const std::string* s =
        block ? block[sym & (kBlockSize - 1)].load(std::memory_order_acquire) : nullptr;
    if (s) return s;
    // Only reachable when a symbol id escaped to another thread before its
    // slot was published — the owning intern() is mid-flight; wait it out.
    std::this_thread::yield();
  }
}

}  // namespace

Symbol intern(std::string_view name) {
  if (name.empty()) return kNoSymbol;
  InternTable& t = table();
  Shard& shard = t.shards[fnv1a(name) & (kShardCount - 1)];
  std::lock_guard lock(shard.mutex);
  auto it = shard.ids.find(name);
  if (it != shard.ids.end()) return it->second;
  const Symbol id = t.next_id.fetch_add(1, std::memory_order_relaxed);
  if (id >= kSpineSize * kBlockSize) {
    throw std::length_error("intern: symbol space exhausted");
  }
  shard.strings.emplace_back(name);
  const std::string& stored = shard.strings.back();
  // Publish the reverse mapping before the id can escape this call: the
  // release store pairs with the acquire load in lookup().
  block_for(t, id >> kBlockBits)[id & (kBlockSize - 1)].store(&stored, std::memory_order_release);
  shard.ids.emplace(std::string_view(stored), id);
  return id;
}

const std::string& symbol_name(Symbol sym) { return *lookup(sym); }

const std::string* symbol_cstr(Symbol sym) { return lookup(sym); }

std::size_t symbol_count() { return table().next_id.load(std::memory_order_acquire) - 1; }

}  // namespace edgstr::util
