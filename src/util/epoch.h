// Process-wide change stamps for the copy-on-write state substrates.
//
// sqldb::Database stamps a table, and vfs::Vfs a file, with a fresh value
// from this one counter on every content change. No stamp is issued twice
// in a process, so two components with the same nonzero stamp hold the same
// content, even when they live in different databases or file systems: a
// stamp can travel with a copied table or file, and a later comparison
// against it stays exact. 0 is never issued; it marks content of unknown
// provenance, which must be compared by content.
#pragma once

#include <atomic>
#include <cstdint>

namespace edgstr::util {

/// A stamp no earlier call returned (never 0).
inline std::uint64_t next_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1) + 1;
}

}  // namespace edgstr::util
