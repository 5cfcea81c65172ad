// Multi-level cache-hierarchy simulator — the stand-in for the paper's
// LIKWID DRAM-traffic measurements (Fig 9; see DESIGN.md §4).
//
// Model: inclusive-fill, set-associative LRU levels with 64-byte lines,
// write-allocate + write-back. A kernel templated on a Tracer (see
// kernels/tracer.hpp) replays its exact access stream through the
// hierarchy; DRAM read bytes are counted at last-level misses, DRAM
// write bytes when dirty lines are evicted from the last level (plus the
// dirty lines left at flush()).
//
// Two simulators live here:
//
//   * CacheHierarchy — one access stream through L1..LLC, used by
//     bench_fig09_memory to replay a serial kernel exactly.
//   * SharedCacheSim — N cores with private L1/L2 over one shared
//     *inclusive* LLC, used by the autotune oracle (perf/sweep_replay)
//     to replay each (thread, color) partition of a sweep through its
//     own core. Inclusion is enforced by back-invalidation:
//     when the LLC evicts a line, every private copy is dropped, and a
//     dirty copy anywhere makes the eviction a DRAM write. It is a
//     traffic model, not a coherence model — the FBMPK partitions write
//     disjoint rows, so MESI state would never be exercised.
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace fbmpk::perf {

/// One cache level's geometry.
struct CacheConfig {
  std::size_t size_bytes = 0;
  std::size_t associativity = 8;
  std::size_t line_bytes = 64;
};

/// Counters accumulated per level.
struct LevelStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

namespace simdetail {

/// One way of one set. Shared by both simulators.
struct Way {
  std::uint64_t tag = 0;
  std::uint64_t lru = 0;  // larger = more recently used
  bool valid = false;
  bool dirty = false;
};

/// One set-associative level's storage.
struct Level {
  std::size_t sets = 0;
  std::size_t ways = 0;
  std::size_t line_bytes = 64;
  std::vector<Way> store;  // sets * ways

  Way* set_begin(std::uint64_t set) { return store.data() + set * ways; }
};

/// Build a Level from a config; validates geometry (pow2 sets/line).
Level make_level(const CacheConfig& cfg, std::size_t line_bytes);

}  // namespace simdetail

class CacheHierarchy {
 public:
  /// Build from level configs ordered L1 -> LLC. At least one level.
  explicit CacheHierarchy(const std::vector<CacheConfig>& levels);

  /// Simulate one memory access at `addr` (any byte of the datum).
  void access(std::uintptr_t addr, bool is_write);

  /// Write back all dirty lines (end-of-run accounting).
  void flush();

  /// Reset counters and contents.
  void clear();

  std::uint64_t dram_read_bytes() const { return dram_read_bytes_; }
  std::uint64_t dram_write_bytes() const { return dram_write_bytes_; }
  std::uint64_t dram_total_bytes() const {
    return dram_read_bytes_ + dram_write_bytes_;
  }
  const LevelStats& level_stats(std::size_t level) const {
    return stats_[level];
  }
  std::size_t num_levels() const { return levels_.size(); }

 private:
  // Returns the way index on hit, or SIZE_MAX on miss.
  std::size_t lookup(simdetail::Level& lv, std::uint64_t line, bool is_write);
  // Install a line into a level, evicting LRU; cascades dirty evictions.
  void fill(std::size_t level_idx, std::uint64_t line, bool dirty);

  std::vector<simdetail::Level> levels_;
  std::vector<LevelStats> stats_;
  std::uint64_t dram_read_bytes_ = 0;
  std::uint64_t dram_write_bytes_ = 0;
  std::uint64_t tick_ = 0;
};

/// N cores with private levels (L1 -> L2 -> ...) over one shared
/// inclusive LLC. Accesses are tagged with the issuing core; DRAM
/// accounting matches CacheHierarchy (reads at LLC misses, writes at
/// dirty LLC evictions / flush). The replay interleaves cores' streams
/// stage-by-stage rather than cycle-accurately — traffic volume, the
/// quantity the oracle ranks by, is insensitive to that ordering.
class SharedCacheSim {
 public:
  /// `private_levels` ordered L1 first; every core gets its own copy.
  SharedCacheSim(int cores, const std::vector<CacheConfig>& private_levels,
                 const CacheConfig& llc);

  /// Simulate one access at `addr` issued by `core`. With
  /// `fetch_on_miss` false a write that misses every level installs the
  /// line without reading it from DRAM (write-validate), modelling the
  /// streaming stores of the sweep kernels whose lines are fully
  /// overwritten; the eventual dirty eviction still pays the DRAM
  /// write. Ignored for reads.
  void access(int core, std::uintptr_t addr, bool is_write,
              bool fetch_on_miss = true);

  /// Touch every line covered by [addr, addr + bytes) once — the cheap
  /// way to replay a sequential stream without per-element calls.
  void touch(int core, std::uintptr_t addr, std::size_t bytes,
             bool is_write, bool fetch_on_miss = true);

  /// Write back all dirty lines (each distinct line once).
  void flush();

  /// Reset counters and contents.
  void clear();

  std::uint64_t dram_read_bytes() const { return dram_read_bytes_; }
  std::uint64_t dram_write_bytes() const { return dram_write_bytes_; }
  std::uint64_t dram_total_bytes() const {
    return dram_read_bytes_ + dram_write_bytes_;
  }
  int cores() const { return static_cast<int>(cores_.size()); }
  std::size_t num_private_levels() const {
    return cores_.empty() ? 0 : cores_.front().size();
  }
  std::size_t line_bytes() const { return llc_.line_bytes; }
  const LevelStats& private_stats(int core, std::size_t level) const {
    return private_stats_[static_cast<std::size_t>(core)][level];
  }
  const LevelStats& llc_stats() const { return llc_stats_; }

 private:
  std::size_t lookup(simdetail::Level& lv, std::uint64_t line, bool is_write);
  /// Install into a private level of `core`; dirty evictions cascade
  /// down the private levels and finally into the LLC.
  void fill_private(int core, std::size_t level_idx, std::uint64_t line,
                    bool dirty);
  /// Install into the LLC; the victim is back-invalidated from every
  /// core, and a dirty copy anywhere turns the eviction into a DRAM
  /// write.
  void fill_llc(std::uint64_t line, bool dirty);
  /// Mark the LLC copy of `line` dirty, installing it if absent (a
  /// private write-back under inclusion).
  void writeback_to_llc(std::uint64_t line);

  std::vector<std::vector<simdetail::Level>> cores_;
  simdetail::Level llc_;
  std::vector<std::vector<LevelStats>> private_stats_;
  LevelStats llc_stats_;
  std::uint64_t dram_read_bytes_ = 0;
  std::uint64_t dram_write_bytes_ = 0;
  std::uint64_t tick_ = 0;
};

/// Tracer adapter binding a SharedCacheSim to one core, for replaying
/// a partition's stream through the kernel templates.
struct CoreTracer {
  SharedCacheSim* sim = nullptr;
  int core = 0;

  template <class T>
  void read(const T* p) {
    sim->access(core, reinterpret_cast<std::uintptr_t>(p), false);
  }
  template <class T>
  void write(T* p) {
    sim->access(core, reinterpret_cast<std::uintptr_t>(p), true);
  }
};

/// Tracer adapter plugging the hierarchy into the kernel templates.
struct CacheTracer {
  CacheHierarchy* sim = nullptr;

  template <class T>
  void read(const T* p) {
    sim->access(reinterpret_cast<std::uintptr_t>(p), false);
  }
  template <class T>
  void write(T* p) {
    sim->access(reinterpret_cast<std::uintptr_t>(p), true);
  }
};

/// A hierarchy shaped like the paper's Xeon (Table I), scaled by
/// `scale` so that proportionally smaller matrices sit in the same
/// matrix-to-LLC ratio regime as the paper's runs.
CacheHierarchy make_xeon_like_hierarchy(double scale = 1.0);

/// Per-level sizes of the Xeon-like shape at `scale`, rounded the same
/// way make_xeon_like_hierarchy rounds (power-of-two, 4 KB floor).
/// Index 0/1 are the private L1/L2, index 2 the LLC.
std::size_t xeon_like_level_bytes(std::size_t level, double scale);

/// The multi-core analogue: `cores` private L1/L2 pairs over one
/// shared LLC, all scaled by `scale`. The LLC is shared, so its size
/// is NOT multiplied by the core count (Table I: 35.75 MB per socket).
SharedCacheSim make_shared_xeon_like(int cores, double scale = 1.0);

}  // namespace fbmpk::perf
