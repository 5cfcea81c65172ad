#include "service/plan_cache.hpp"

#include <cstring>
#include <span>
#include <utility>

#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk::service {

namespace {

constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;

/// One lane step: multiply-xorshift. Both halves are bijections of
/// `acc` for a fixed word, so a change confined to one word always
/// leaves a different lane state.
inline std::uint64_t lane_step(std::uint64_t acc, std::uint64_t w) {
  acc = (acc ^ w) * kMul;
  return acc ^ (acc >> 29);
}

/// Murmur3's 64-bit finalizer: a bijection with full avalanche.
inline std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  return h ^ (h >> 33);
}

inline std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Folds `size` bytes into `seed`: four independent lanes over 32-byte
/// blocks keep four multiply chains in flight, the leftover words go to
/// lanes 0-2, a zero-padded partial word to the next lane, and the byte
/// count is mixed in so trailing zero bytes still count.
std::uint64_t hash_bytes(std::uint64_t seed, const void* data,
                         std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {seed, seed ^ 0x243F6A8885A308D3ull,
                           seed ^ 0x13198A2E03707344ull,
                           seed ^ 0xA4093822299F31D0ull};
  std::size_t n = size;
  for (; n >= 32; p += 32, n -= 32)
    for (int j = 0; j < 4; ++j)
      lane[j] = lane_step(lane[j], load_word(p + 8 * j));
  int j = 0;
  for (; n >= 8; p += 8, n -= 8, ++j)
    lane[j] = lane_step(lane[j], load_word(p));
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    lane[j] = lane_step(lane[j], w);
  }
  std::uint64_t h = fmix64(size ^ kMul);
  for (const std::uint64_t v : lane) h = fmix64(h ^ v);
  return h;
}

template <class T>
std::uint64_t hash_span(std::uint64_t seed, std::span<const T> s) {
  return hash_bytes(seed, s.data(), s.size_bytes());
}

}  // namespace

std::uint64_t fingerprint(const CsrMatrix<double>& a) {
  const std::int64_t dims[2] = {a.rows(), a.cols()};
  std::uint64_t h = hash_bytes(0, dims, sizeof(dims));
  h = hash_span(h, a.row_ptr());
  h = hash_span(h, a.col_idx());
  return hash_span(h, a.values());
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
