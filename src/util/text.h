// Immutable, shared string bodies hashed at most once.
//
// A file's contents, the MiniJS string a script read from it, and the RW
// log's digest of that string are one body: the VFS hands out its body, a
// JsValue holds it by reference, and digests mix its content hash
// (util/hash.h) instead of re-hashing its bytes. The body caches that
// hash's state over its whole 8-byte words, so hash() finishes from the
// cache over at most 7 tail bytes, and an in-place append extends the
// cache over the new words alone. Copying a TextPtr is a refcount bump, so
// a multi-megabyte model file is neither copied nor re-hashed per request.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace edgstr::util {

class Text;
using TextPtr = std::shared_ptr<const Text>;

/// A new body holding `s`.
TextPtr make_text(std::string s);

/// Appends `data` to `*body` (a null `*body` counts as empty). When
/// `*body` is the only reference, the body grows in place (amortized
/// O(data)) and its cached hash state is extended; otherwise `*body` is replaced
/// by a new body, so every other holder keeps the old contents
/// (copy-on-write). A sole reference cannot gain a holder meanwhile: only
/// the caller, through `*body`, could copy it.
void append_text(TextPtr* body, std::string_view data);

class Text {
  struct Key {
    explicit Key() = default;
  };

 public:
  // Only make_text creates bodies: they are never const objects, which
  // keeps append_text's in-place growth of a sole-owned body well-defined.
  Text(Key, std::string s) : str_(std::move(s)) {}
  Text(const Text&) = delete;
  Text& operator=(const Text&) = delete;

  const std::string& str() const { return str_; }
  std::size_t size() const { return str_.size(); }

  /// content_hash(str()). The state over the whole words is computed on
  /// first use and cached; 0 means "not yet computed" (a body whose state
  /// really is 0 recomputes it each time). Relaxed atomics suffice: racing
  /// first computations store the same value, and the bytes never change
  /// while another holder can see them.
  std::uint64_t hash() const {
    const std::size_t whole = str_.size() & ~std::size_t{7};
    std::uint64_t state = words_.load(std::memory_order_relaxed);
    if (state == 0) {
      state = hash_words(kHashSeed, str_.data(), whole);
      words_.store(state, std::memory_order_relaxed);
    }
    return hash_finish(state, std::string_view(str_).substr(whole), str_.size());
  }

 private:
  friend TextPtr make_text(std::string s);
  friend void append_text(TextPtr* body, std::string_view data);

  std::string str_;
  mutable std::atomic<std::uint64_t> words_{0};  ///< hash state over the whole words
};

// The hash cache is one word beside the bytes.
static_assert(sizeof(Text) == sizeof(std::string) + sizeof(std::uint64_t));

inline TextPtr make_text(std::string s) { return std::make_shared<Text>(Text::Key{}, std::move(s)); }

inline void append_text(TextPtr* body, std::string_view data) {
  if (!*body || body->use_count() != 1) {
    std::string grown;
    grown.reserve((*body ? (*body)->size() : 0) + data.size());
    if (*body) grown.append((*body)->str_);
    grown.append(data);
    *body = make_text(std::move(grown));
    return;
  }
  // Sole owner: nobody else can observe the bytes, so extend them. A known
  // state extends over the whole words the append completes, read from the
  // grown body (`data` may view the body itself, and the append may move it).
  Text& text = const_cast<Text&>(**body);
  const std::uint64_t state = text.words_.load(std::memory_order_relaxed);
  const std::size_t done = text.str_.size() & ~std::size_t{7};
  text.str_.append(data);
  if (state == 0) return;
  const std::size_t whole = text.str_.size() & ~std::size_t{7};
  text.words_.store(hash_words(state, text.str_.data() + done, whole - done),
                    std::memory_order_relaxed);
}

}  // namespace edgstr::util
