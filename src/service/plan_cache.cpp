#include "service/plan_cache.hpp"

#include <utility>

#include "support/checksum.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk::service {

std::uint64_t fingerprint(const CsrMatrix<double>& a) {
  std::uint32_t s = kCrc32Init;
  const std::int64_t dims[2] = {a.rows(), a.cols()};
  s = crc32_update(s, dims, sizeof(dims));
  s = crc32_update(s, a.row_ptr().data(),
                   a.row_ptr().size() * sizeof(index_t));
  s = crc32_update(s, a.col_idx().data(),
                   a.col_idx().size() * sizeof(index_t));
  const std::uint32_t structure = crc32_finish(s);
  const std::uint32_t values =
      crc32(a.values().data(), a.values().size() * sizeof(double));
  return (static_cast<std::uint64_t>(structure) << 32) | values;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<PlanCache::Entry> PlanCache::insert_locked(
    std::shared_ptr<Entry> entry) {
  const std::uint64_t key = entry->key;
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Lost a build race (or replacing a quarantined entry that another
    // thread already rebuilt and re-inserted): adopt the winner.
    lru_.splice(lru_.end(), lru_, it->second.pos);
    return it->second.entry;
  }
  lru_.push_back(key);
  map_.emplace(key, Slot{entry, std::prev(lru_.end())});
  while (map_.size() > capacity_) {
    const std::uint64_t victim = lru_.front();
    lru_.pop_front();
    map_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    FBMPK_TCOUNT("service.cache.evict", 1);
  }
  return entry;
}

std::shared_ptr<PlanCache::Entry> PlanCache::acquire(std::uint64_t key,
                                                     const Builder& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (!it->second.entry->quarantined.load(std::memory_order_acquire)) {
        lru_.splice(lru_.end(), lru_, it->second.pos);
        hits_.fetch_add(1, std::memory_order_relaxed);
        FBMPK_TCOUNT("service.cache.hit", 1);
        return it->second.entry;
      }
      // Watchdog-flagged plan: never served again — drop and rebuild.
      lru_.erase(it->second.pos);
      map_.erase(it);
    }
  }
  // Miss (or quarantined above): build outside the lock so concurrent
  // requests for other fingerprints keep flowing.
  misses_.fetch_add(1, std::memory_order_relaxed);
  FBMPK_TCOUNT("service.cache.miss", 1);
  std::shared_ptr<const MpkPlan> plan;
  {
    FBMPK_TSPAN(kService, "service.cache.build");
    [[maybe_unused]] Timer build_timer;
    plan = std::make_shared<const MpkPlan>(build());
    // Last-build gauge: the request-path cost the autotune oracle is
    // meant to shrink (docs/AUTOTUNING.md); spans carry the history,
    // the gauge makes the latest cost scrapeable.
    FBMPK_TGAUGE("service.plan_build_ns",
                 static_cast<std::int64_t>(build_timer.seconds() * 1e9));
  }
  auto entry = std::make_shared<Entry>(key, std::move(plan));
  std::lock_guard<std::mutex> lock(mu_);
  return insert_locked(std::move(entry));
}

bool PlanCache::quarantine(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  it->second.entry->quarantined.store(true, std::memory_order_release);
  return true;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<std::uint64_t> PlanCache::keys_lru_order() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lru_.begin(), lru_.end()};
}

CacheStats PlanCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fbmpk::service
