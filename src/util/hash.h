// Word-at-a-time 64-bit content hash for in-process comparisons.
//
// The hash reads a body 8 bytes per step: each word is multiplied and
// xor-shifted off the state's dependency chain, then folded into the state
// with one xor, rotate and multiply. Each step is a bijection of the state
// for a fixed word and of the word for a fixed state, so two bodies of one
// length that differ in a single word always differ before the finish. The
// finish folds in the ≤ 7 tail bytes and the length and runs an fmix64
// finaliser.
//
// It streams over whole words: hash_words over a body's first 8k bytes,
// continued over the next 8m bytes, equals hash_words over all 8(k+m), so
// util::Text caches that state and extends it on append. Values are not
// stable across builds or byte orders; anything pinned, persisted or shown
// to a program hashes with util::fnv1a instead (DESIGN.md §9).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace edgstr::util {

/// The state before any word; nonzero, so 0 can mean "not yet computed".
inline constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

/// Folds one word into `state`.
inline std::uint64_t hash_word(std::uint64_t state, std::uint64_t word) {
  word *= 0xbf58476d1ce4e5b9ULL;
  word ^= word >> 32;
  return std::rotl(state ^ word, 29) * 0x94d049bb133111ebULL;
}

/// Folds the `bytes / 8` whole words at `data` into `state`; `bytes` is a
/// multiple of 8. Loads are unaligned-safe.
inline std::uint64_t hash_words(std::uint64_t state, const char* data, std::size_t bytes) {
  for (const char* end = data + bytes; data != end; data += 8) {
    std::uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    state = hash_word(state, word);
  }
  return state;
}

/// The hash of a body of `size` bytes whose whole words gave `state` and
/// whose last `size % 8` bytes are `tail`. Never 0.
inline std::uint64_t hash_finish(std::uint64_t state, std::string_view tail, std::size_t size) {
  std::uint64_t last = 0;
  if (!tail.empty()) std::memcpy(&last, tail.data(), tail.size());
  std::uint64_t h = hash_word(hash_word(state, last), size);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h == 0 ? 1 : h;
}

/// The content hash of `data`: what util::Text::hash() returns for a body
/// holding these bytes.
inline std::uint64_t content_hash(std::string_view data) {
  const std::size_t whole = data.size() & ~std::size_t{7};
  return hash_finish(hash_words(kHashSeed, data.data(), whole), data.substr(whole), data.size());
}

}  // namespace edgstr::util
