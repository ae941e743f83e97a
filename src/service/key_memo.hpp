// The resolver's memo: cache-key parts that are pure functions of what a
// request names, so the cache-hit path of a repeat submission neither
// builds, parses nor copies anything.
//
// Named slots map a slot name to key parts: the effective library's
// fingerprint per supply ladder, and a named circuit's hashes per
// effective library.  Two racing misses compute and store the same value.
//
// Inline slots map an inline netlist's exact text, its format and the
// effective library's fingerprint to the netlist's topology and mapping
// hashes — exactly what parsing it would produce.  The whole text is the
// key: a lookup hashes it only to pick a bucket and then compares every
// byte, so no digest stands in for the text and two texts never share a
// slot (a false hit would answer with another circuit's result).  Only a
// text that parsed is remembered.  A slot is charged its text's bytes,
// and slots are evicted least-recently-used within a byte budget.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "service/cache.hpp"

namespace dvs {

struct KeyMemoStats {
  std::uint64_t inline_parses = 0;  // inline texts parsed, at resolve or late
  std::uint64_t hits = 0;           // inline texts resolved without a parse
  std::size_t entries = 0;  // resident inline slots
  std::size_t bytes = 0;    // their text bytes
};

class KeyMemo {
 public:
  /// `capacity_bytes` bounds the inline slots' resident text bytes.
  explicit KeyMemo(std::size_t capacity_bytes);

  /// A named slot's parts, computed on its first use.
  template <class Compute>
  CacheKey get(const std::string& slot, const Compute& compute) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = parts_.find(slot);
      if (it != parts_.end()) return it->second;
    }
    const CacheKey parts = compute();
    std::lock_guard<std::mutex> lock(mutex_);
    parts_.emplace(slot, parts);
    return parts;
  }

  /// The topology and mapping parts of an inline text seen before in this
  /// format at this library (a hit: the slot becomes the most recent), or
  /// nullopt.
  std::optional<CacheKey> find_inline(const std::string& text, bool verilog,
                                      std::uint64_t library);

  /// Remembers a parsed text's parts under a copy of the text, evicting
  /// the least recently used slots until the budget holds.  A text larger
  /// than the whole budget is not remembered.
  void put_inline(const std::string& text, bool verilog,
                  std::uint64_t library, const CacheKey& parts);

  /// Counts one parse of an inline text.
  void count_parse() { parses_.fetch_add(1, std::memory_order_relaxed); }

  KeyMemoStats stats() const;

 private:
  /// A slot's identity.  `text` views the slot's own copy, or the
  /// request's text during a lookup; `hash` is computed outside the lock.
  struct InlineKey {
    std::string_view text;
    std::uint64_t library = 0;
    bool verilog = false;
    std::size_t hash = 0;

    bool operator==(const InlineKey& other) const {
      return hash == other.hash && library == other.library &&
             verilog == other.verilog && text == other.text;
    }
  };
  struct InlineKeyHash {
    std::size_t operator()(const InlineKey& key) const { return key.hash; }
  };
  struct InlineSlot {
    std::string text;
    InlineKey key;  // views `text`; list nodes never move
    CacheKey parts;
  };
  using InlineLru = std::list<InlineSlot>;

  static InlineKey inline_key(std::string_view text, bool verilog,
                              std::uint64_t library);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, CacheKey> parts_;
  std::size_t capacity_bytes_;
  std::size_t bytes_ = 0;
  InlineLru lru_;  // front = most recent
  std::unordered_map<InlineKey, InlineLru::iterator, InlineKeyHash> index_;
  std::uint64_t hits_ = 0;
  std::atomic<std::uint64_t> parses_{0};
};

}  // namespace dvs
