// Content-addressed result cache for the dvsd optimization service.
//
// The expensive unit of work is "run the dual-Vdd flow on one circuit";
// its result is a pure function of (what the netlist computes, how it is
// sized, the canonicalized flow options, the library).  Those four
// ingredients — topology_hash, mapping_fingerprint (netlist/stats.hpp),
// an FNV-1a over the canonical options JSON, and Library::fingerprint —
// form the key.  The netlist hashes ignore node ids, names and pin order,
// so texts that spell one netlist differently share an entry.  A text
// form keeps the hashes only if it keeps what they hash: a Verilog round
// trip keeps both, while a BLIF round trip of a mapped circuit drops its
// cells and adds one buffer per output port, so that text keys an entry
// of its own and is mapped again.
//
// Capacity is accounted in BYTES of resident payload, not entries: one
// batch of large netlists must not blow the daemon's memory just because
// it fits an entry count.  Eviction is LRU by bytes, a payload larger
// than the whole budget is rejected outright, and get/put are
// thread-safe (one mutex — the guarded work is pointer swaps, never flow
// runs).  Hit/miss/eviction/rejection/byte counters feed the protocol's
// `stats` request.  This is the in-memory tier; DiskCacheEngine
// (service/disk_cache.hpp) persists the same payloads under it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace dvs {

struct CacheKey {
  std::uint64_t topology = 0;  // topology_hash of the submitted netlist
  std::uint64_t mapping = 0;   // mapping_fingerprint (0 = unmapped)
  std::uint64_t options = 0;   // fnv1a64 of canonical options JSON
  std::uint64_t library = 0;   // Library::fingerprint

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // The components are already splitmix/FNV outputs; fold, don't re-mix.
    std::uint64_t h = k.topology;
    h = h * 0x9e3779b97f4a7c15ULL + k.mapping;
    h = h * 0x9e3779b97f4a7c15ULL + k.options;
    h = h * 0x9e3779b97f4a7c15ULL + k.library;
    return static_cast<std::size_t>(h);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Payloads larger than the whole byte budget, turned away by put().
  std::uint64_t rejected = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;  // resident payload bytes
  std::size_t capacity_bytes = 0;
};

/// Thread-safe byte-budgeted LRU map from CacheKey to an opaque payload
/// (the service stores the serialized result object, replayed verbatim
/// on a hit).  Payloads are shared immutably: a hit is a refcount bump
/// under the lock, never a multi-MB copy inside the critical section.
class ResultCache {
 public:
  using Payload = std::shared_ptr<const std::string>;

  /// `capacity_bytes` = maximum resident payload bytes (>= 1).
  explicit ResultCache(std::size_t capacity_bytes);

  /// Shared payload on hit (bumps recency, counts a hit); nullptr on
  /// miss (counts a miss).
  Payload get(const CacheKey& key);

  /// Inserts or refreshes; evicts least-recently-used entries until the
  /// byte budget holds.  Replacing an existing key's payload is not an
  /// eviction.  A payload larger than the whole budget is rejected
  /// (returns false, counted in stats().rejected) — and if the key held
  /// a smaller stale payload, that entry is dropped rather than served.
  bool put(const CacheKey& key, Payload payload);

  CacheStats stats() const;

 private:
  using LruList = std::list<std::pair<CacheKey, Payload>>;

  /// Drops the entry behind `it` and returns bytes to the budget.
  /// Caller holds the lock.
  void erase_locked(LruList::iterator it);

  mutable std::mutex mutex_;
  std::size_t capacity_bytes_;
  std::size_t bytes_ = 0;
  LruList lru_;  // front = most recent
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace dvs
