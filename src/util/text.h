// Immutable, shared string bodies hashed at most once.
//
// A file's contents, the MiniJS string a script read from it, and the RW
// log's digest of that string are one body: the VFS hands out its body, a
// JsValue holds it by reference, and digests mix its cached FNV-1a instead
// of re-hashing its bytes. Copying a TextPtr is a refcount bump, so a
// multi-megabyte model file is neither copied nor re-hashed per request.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/strings.h"

namespace edgstr::util {

class Text;
using TextPtr = std::shared_ptr<const Text>;

/// A new body holding `s`.
TextPtr make_text(std::string s);

/// Appends `data` to `*body` (a null `*body` counts as empty). When
/// `*body` is the only reference, the body grows in place (amortized
/// O(data)) and its cached hash is extended; otherwise `*body` is replaced
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

  /// fnv1a(str()), computed on first use and cached. 0 means "not yet
  /// computed" (a body whose hash really is 0 recomputes it each time).
  /// Relaxed atomics suffice: racing first computations store the same
  /// value, and the bytes never change while another holder can see them.
  std::uint64_t hash() const {
    std::uint64_t h = hash_.load(std::memory_order_relaxed);
    if (h == 0) {
      h = fnv1a(str_);
      hash_.store(h, std::memory_order_relaxed);
    }
    return h;
  }

 private:
  friend TextPtr make_text(std::string s);
  friend void append_text(TextPtr* body, std::string_view data);

  std::string str_;
  mutable std::atomic<std::uint64_t> hash_{0};
};

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
  // Sole owner: nobody else can observe the bytes, so extend them. FNV-1a
  // streams, so a known hash extends over the new bytes alone; it is taken
  // before the append, which may move `data` when it views the body itself.
  Text& text = const_cast<Text&>(**body);
  const std::uint64_t h = text.hash_.load(std::memory_order_relaxed);
  const std::uint64_t extended = h == 0 ? 0 : fnv1a_append(h, data);
  text.str_.append(data);
  text.hash_.store(extended, std::memory_order_relaxed);
}

}  // namespace edgstr::util
