#include "service/key_memo.hpp"

#include <functional>
#include <iterator>

#include "support/contracts.hpp"

namespace dvs {

KeyMemo::KeyMemo(std::size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  DVS_EXPECTS(capacity_bytes >= 1);
}

KeyMemo::InlineKey KeyMemo::inline_key(std::string_view text, bool verilog,
                                       std::uint64_t library) {
  std::size_t hash = std::hash<std::string_view>{}(text);
  hash = hash * 0x9e3779b97f4a7c15ULL + library;
  hash = hash * 0x9e3779b97f4a7c15ULL + (verilog ? 1 : 0);
  return {text, library, verilog, hash};
}

std::optional<CacheKey> KeyMemo::find_inline(const std::string& text,
                                             bool verilog,
                                             std::uint64_t library) {
  const InlineKey key = inline_key(text, verilog, library);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->parts;
}

void KeyMemo::put_inline(const std::string& text, bool verilog,
                         std::uint64_t library, const CacheKey& parts) {
  if (text.size() > capacity_bytes_) return;
  // The copy is made, and evicted slots are freed, outside the lock.
  InlineLru fresh;
  InlineSlot& slot = fresh.emplace_back();
  slot.text = text;
  slot.key = inline_key(slot.text, verilog, library);
  slot.parts = parts;
  InlineLru evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(slot.key);
  if (it != index_.end()) {
    // A racing miss parsed the same text first.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (bytes_ + text.size() > capacity_bytes_) {
    const auto oldest = std::prev(lru_.end());
    bytes_ -= oldest->text.size();
    index_.erase(oldest->key);
    evicted.splice(evicted.end(), lru_, oldest);
  }
  lru_.splice(lru_.begin(), fresh);
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += text.size();
}

KeyMemoStats KeyMemo::stats() const {
  KeyMemoStats out;
  out.inline_parses = parses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  out.hits = hits_;
  out.entries = index_.size();
  out.bytes = bytes_;
  return out;
}

}  // namespace dvs
