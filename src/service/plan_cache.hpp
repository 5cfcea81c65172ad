// LRU plan cache for the serving layer (docs/SERVICE.md).
//
// Entries are keyed by a 64-bit fingerprint of the input matrix
// (dims + row_ptr + col_idx + values, a word-at-a-time hash) and hold
// the built MpkPlan itself; a miss is a build and nothing else. Plans
// that should outlive the process go to disk through core/plan_io.hpp
// (fbmpk_cli plan), not through this cache.
//
// Thread-safety: every public method is safe to call concurrently.
// Builds run outside the cache lock, so two threads missing on the
// same fingerprint may both build; the first insert wins and the loser
// adopts it. An entry's plan is fixed at construction, so a caller may
// read it without the lock for as long as it holds the entry. Entry
// flag fields (degrade_level, quarantined) are atomics the serving
// ladder mutates without touching the cache lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "sparse/csr.hpp"

namespace fbmpk::service {

/// 64-bit content fingerprint of a CSR matrix: dims, row_ptr, col_idx
/// and value bytes, each array folded as 8-byte words by a four-lane
/// multiply-xorshift hash and chained into the next array's seed. An
/// in-process cache key only: never persisted, so free to change
/// between versions (plan files carry CRC32, support/checksum.hpp).
std::uint64_t fingerprint(const CsrMatrix<double>& a);

/// Monotonic cache statistics (independent of telemetry enablement).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< capacity evictions only
};

class PlanCache {
 public:
  /// One cached plan. `plan` is set at construction and never reset.
  /// `degrade_level` is the sticky degradation-ladder rung for this
  /// plan (0 = full speed); `quarantined` marks a plan the watchdog
  /// caught wedging a sweep — acquire() treats it as evicted and
  /// rebuilds.
  struct Entry {
    Entry(std::uint64_t k, std::shared_ptr<const MpkPlan> p)
        : key(k), plan(std::move(p)) {}

    const std::uint64_t key;
    const std::shared_ptr<const MpkPlan> plan;
    std::atomic<int> degrade_level{0};
    std::atomic<bool> quarantined{false};
  };

  using Builder = std::function<MpkPlan()>;

  explicit PlanCache(std::size_t capacity);

  /// Look up `key`; on miss (or quarantined entry) invoke `build` and
  /// insert the result, evicting the least-recently-used entry when
  /// over capacity. Always returns an entry with a non-null plan;
  /// build failures propagate as the Error `build` throws.
  std::shared_ptr<Entry> acquire(std::uint64_t key, const Builder& build);

  /// Mark `key` quarantined (watchdog: plan wedged a sweep). The next
  /// acquire evicts and rebuilds it. Returns false when absent.
  bool quarantine(std::uint64_t key);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Keys from least- to most-recently used (deterministic LRU tests).
  std::vector<std::uint64_t> keys_lru_order() const;

  CacheStats stats() const;

 private:
  std::shared_ptr<Entry> insert_locked(std::shared_ptr<Entry> entry);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  /// LRU order: front = least recently used, back = most recent.
  std::list<std::uint64_t> lru_;
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<std::uint64_t>::iterator pos;
  };
  std::unordered_map<std::uint64_t, Slot> map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace fbmpk::service
