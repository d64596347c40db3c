// Small string utilities shared by the parsers and code generators.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace edgstr::util {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Joins the pieces with the separator.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Lowercases ASCII characters.
std::string to_lower(std::string_view text);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string_view text, std::string_view from, std::string_view to);

/// 64-bit FNV-1a hash; used where a hash is pinned, persisted or visible to
/// a program (CRDT state hashes, snapshot and sim digests, blobHash).
/// In-process content hashes use util::content_hash (util/hash.h).
/// Streamable: feeding a string's pieces through fnv1a_append, starting
/// from kFnv1aBasis, gives fnv1a() of the whole string.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a_append(std::uint64_t hash, std::string_view data) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
inline std::uint64_t fnv1a(std::string_view data) { return fnv1a_append(kFnv1aBasis, data); }

/// Parses a bare unsigned decimal into `*out`. Rejects what strtoul and
/// stoull quietly accept: a sign ("-1" would wrap to 2^64-1), leading or
/// trailing whitespace or junk ("4x"), the empty string, and overflow.
/// Leaves `*out` untouched on failure.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// Human-readable byte count ("1.5 MB").
std::string format_bytes(double bytes);

/// Renders a double with the given precision, trimming trailing zeros.
std::string format_double(double value, int precision = 3);

}  // namespace edgstr::util
