#include "perf/sweep_replay.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/timer.hpp"

namespace fbmpk::perf {

namespace {

// Virtual address space: one synthetic base per dense-vector stream,
// spaced far beyond any realistic footprint so no two streams share a
// line. Only the vector arrays go through the cache simulator — the
// CSR streams (row_ptr, col_idx, values, diagonal) are read-once-per-
// sweep compulsory traffic that no realistic cache retains across a
// sweep, so the replay charges them analytically (see RowReplayer).
// That keeps the simulated hierarchy focused on the one thing that
// differs between candidates: vector reuse and gather locality.
enum Stream : int { kX0, kXY, kTmp, kYOut };

constexpr std::uintptr_t stream_base(Stream s) {
  return (static_cast<std::uintptr_t>(s) + 1) << 44;
}

/// One sampled permuted row, with its column gather targets split by
/// triangle and its element offset into the (sample-compacted) L/U
/// streams. Offsets are assigned in ascending permuted-row order so a
/// backward sweep revisits exactly the forward sweep's addresses.
struct RowRef {
  index_t p = 0;      ///< permuted row index (vector-space address)
  index_t rank = 0;   ///< index among sampled rows (row_ptr address)
  std::uint64_t lo_off = 0, up_off = 0;  ///< element offsets
  std::uint32_t lo_begin = 0, lo_end = 0;  ///< range into lo_cols
  std::uint32_t up_begin = 0, up_end = 0;  ///< range into up_cols
};

struct SampledBlock {
  index_t color = 0;
  std::uint32_t first_row = 0, last_row = 0;  ///< range into rows
};

struct ReplayWorld {
  std::vector<RowRef> rows;  // ascending permuted order
  // Gather targets in *compact* coordinates: a sampled row's exact
  // rank, an unsampled neighbor's insertion rank (all neighbors in the
  // gap between two sampled blocks collapse onto the boundary). This
  // makes the sampled replay a self-similar 1/S-scale problem — vector
  // arrays shrink with the sample exactly like the scaled cache does —
  // instead of scattering gathers across the full-size address range,
  // which would miss far more lines per sampled row than the full
  // stream does per row.
  std::vector<index_t> lo_cols, up_cols;
  std::vector<SampledBlock> blocks;  // in block (= color) order
  // blocks of (color, thread), as indices into `blocks`.
  std::vector<std::vector<std::vector<std::uint32_t>>> parts;
  index_t num_colors = 1;
  std::uint64_t replayed_entries = 0;  // incl. diagonal hits
};

ReplayWorld build_world(const CsrMatrix<double>& a, const AbmcOrdering* ord,
                        int threads, index_t max_sample_rows) {
  const index_t n = a.rows();
  ReplayWorld w;

  // Block/color structure: the ordering's, or synthetic contiguous
  // 256-row blocks of one color for the natural order.
  std::vector<index_t> block_ptr;
  std::vector<index_t> block_color;
  if (ord != nullptr && !ord->block_ptr.empty()) {
    block_ptr = ord->block_ptr;
    w.num_colors = std::max<index_t>(1, ord->num_colors);
    block_color.resize(static_cast<std::size_t>(ord->num_blocks));
    for (index_t c = 0; c < ord->num_colors; ++c)
      for (index_t b = ord->color_ptr[c]; b < ord->color_ptr[c + 1]; ++b)
        block_color[static_cast<std::size_t>(b)] = c;
  } else {
    constexpr index_t kRowsPerBlock = 256;
    for (index_t r = 0; r <= n; r += kRowsPerBlock)
      block_ptr.push_back(std::min(r, n));
    if (block_ptr.back() != n) block_ptr.push_back(n);
    block_color.assign(block_ptr.size() - 1, 0);
    w.num_colors = 1;
  }
  const auto num_blocks = static_cast<index_t>(block_ptr.size() - 1);

  // Sample every S-th block, S sized so ~max_sample_rows rows survive.
  index_t stride = 1;
  if (max_sample_rows > 0 && n > max_sample_rows)
    stride = (n + max_sample_rows - 1) / max_sample_rows;

  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  std::vector<index_t> inv;
  if (ord != nullptr) inv = ord->perm.inverse();
  const auto old_of = [&](index_t p) {
    return ord != nullptr ? ord->perm.old_of(p) : p;
  };
  const auto new_of = [&](index_t c) { return ord != nullptr ? inv[c] : c; };

  std::uint64_t lo_elems = 0, up_elems = 0;
  index_t rank = 0;
  for (index_t b = 0; b < num_blocks; ++b) {
    if (b % stride != 0) continue;
    SampledBlock sb;
    sb.color = block_color[static_cast<std::size_t>(b)];
    sb.first_row = static_cast<std::uint32_t>(w.rows.size());
    for (index_t p = block_ptr[b]; p < block_ptr[b + 1]; ++p) {
      RowRef row;
      row.p = p;
      row.rank = rank++;
      row.lo_off = lo_elems;
      row.up_off = up_elems;
      row.lo_begin = static_cast<std::uint32_t>(w.lo_cols.size());
      const index_t r = old_of(p);
      w.replayed_entries += static_cast<std::uint64_t>(rp[r + 1] - rp[r]);
      for (index_t e = rp[r]; e < rp[r + 1]; ++e) {
        const index_t pc = new_of(ci[e]);
        if (pc < p) w.lo_cols.push_back(pc);
      }
      row.lo_end = static_cast<std::uint32_t>(w.lo_cols.size());
      row.up_begin = static_cast<std::uint32_t>(w.up_cols.size());
      for (index_t e = rp[r]; e < rp[r + 1]; ++e) {
        const index_t pc = new_of(ci[e]);
        if (pc > p) w.up_cols.push_back(pc);
      }
      row.up_end = static_cast<std::uint32_t>(w.up_cols.size());
      lo_elems += row.lo_end - row.lo_begin;
      up_elems += row.up_end - row.up_begin;
      w.rows.push_back(row);
    }
    sb.last_row = static_cast<std::uint32_t>(w.rows.size());
    if (sb.last_row > sb.first_row) w.blocks.push_back(sb);
  }

  // Compact the gather coordinates (see ReplayWorld): a sampled target
  // keeps its exact rank, anything in a gap collapses onto the next
  // sampled row's rank. rows is sorted by p, so this is a lower_bound.
  const auto compact = [&](index_t pc) {
    const auto it = std::lower_bound(
        w.rows.begin(), w.rows.end(), pc,
        [](const RowRef& r, index_t v) { return r.p < v; });
    return static_cast<index_t>(it - w.rows.begin());
  };
  for (auto& c : w.lo_cols) c = compact(c);
  for (auto& c : w.up_cols) c = compact(c);

  // Deal each color's sampled blocks round-robin across the simulated
  // cores (a fair stand-in for the kernel's static split: the oracle
  // ranks traffic, which barely moves with the intra-color assignment).
  w.parts.assign(static_cast<std::size_t>(w.num_colors),
                 std::vector<std::vector<std::uint32_t>>(
                     static_cast<std::size_t>(threads)));
  std::vector<index_t> rr(static_cast<std::size_t>(w.num_colors), 0);
  for (std::size_t sbi = 0; sbi < w.blocks.size(); ++sbi) {
    const auto c = static_cast<std::size_t>(w.blocks[sbi].color);
    const auto t = static_cast<std::size_t>(rr[c]++ % threads);
    w.parts[c][t].push_back(static_cast<std::uint32_t>(sbi));
  }
  return w;
}

/// Issues the virtual accesses of one row for each pipeline stage,
/// mirroring fbmpk_sweep_btb's tracer calls (kernels/fbmpk.hpp).
/// Dense-vector traffic (x0, the interleaved xy pair, tmp, y and the
/// per-nonzero gathers — one lane for row_dot1, the pair for row_dot2)
/// goes through the shared cache simulator; vector writes use the
/// write-validate path since the kernels overwrite whole rows. The CSR
/// side (row_ptr pair, col/val streams, diagonal) is accumulated as
/// analytic compulsory bytes: it is read exactly once per sweep in the
/// matrix >> LLC regime the oracle targets, and simulating it would
/// only let the megabytes-long stream flush the vector working set out
/// of the scaled-down LLC — an artifact of scaling, not a property of
/// the machine being modelled.
class RowReplayer {
 public:
  RowReplayer(SharedCacheSim& sim, const ReplayWorld& w,
              const ReplayConfig& cfg)
      : sim_(sim), w_(w), cib_(cfg.col_index_bytes),
        vb_(cfg.matrix_value_bytes),
        lane_(8 * static_cast<std::size_t>(cfg.nvec)) {}

  /// CSR bytes charged outside the simulator (fractional: band
  /// compression prices indices at a fractional width).
  double matrix_bytes() const { return matrix_bytes_; }

  void head(int core, const RowRef& row) {
    touch(core, kX0, elem(row.rank), lane_, false);
    touch(core, kXY, xy_even(row.rank), lane_, true);
    rp_pair();
    stream(row.up_end - row.up_begin);
    for (auto i = row.up_begin; i < row.up_end; ++i)
      touch(core, kXY, xy_even(w_.up_cols[i]), lane_, false);  // dot1 even
    touch(core, kTmp, elem(row.rank), lane_, true);
  }

  void forward(int core, const RowRef& row) {
    rp_pair();
    touch(core, kTmp, elem(row.rank), lane_, false);
    diag();
    touch(core, kXY, xy_even(row.rank), lane_, false);
    stream(row.lo_end - row.lo_begin);
    for (auto i = row.lo_begin; i < row.lo_end; ++i)
      touch(core, kXY, xy_even(w_.lo_cols[i]), 2 * lane_, false);  // pair
    touch(core, kXY, xy_odd(row.rank), lane_, true);
    touch(core, kTmp, elem(row.rank), lane_, true);
  }

  void backward(int core, const RowRef& row, bool prime_next) {
    rp_pair();
    touch(core, kTmp, elem(row.rank), lane_, false);
    stream(row.up_end - row.up_begin);
    for (auto i = row.up_begin; i < row.up_end; ++i) {
      if (prime_next)
        touch(core, kXY, xy_even(w_.up_cols[i]), 2 * lane_, false);
      else
        touch(core, kXY, xy_odd(w_.up_cols[i]), lane_, false);  // dot1 odd
    }
    touch(core, kXY, xy_even(row.rank), lane_, true);
    if (prime_next) touch(core, kTmp, elem(row.rank), lane_, true);
  }

  void tail(int core, const RowRef& row) {
    rp_pair();
    touch(core, kTmp, elem(row.rank), lane_, false);
    diag();
    touch(core, kXY, xy_even(row.rank), lane_, false);
    stream(row.lo_end - row.lo_begin);
    for (auto i = row.lo_begin; i < row.lo_end; ++i)
      touch(core, kXY, xy_even(w_.lo_cols[i]), lane_, false);  // dot1 even
    touch(core, kYOut, elem(row.rank), lane_, true);
  }

 private:
  std::uint64_t elem(index_t p) const {
    return static_cast<std::uint64_t>(p) * lane_;
  }
  // BtB batched layout xy[2·B·n]: row p's even lanes at 2·B·p, odd at
  // 2·B·p + B; a pair gather reads both, contiguously.
  std::uint64_t xy_even(index_t p) const {
    return static_cast<std::uint64_t>(p) * 2 * lane_;
  }
  std::uint64_t xy_odd(index_t p) const { return xy_even(p) + lane_; }

  void touch(int core, Stream s, std::uint64_t off, std::size_t bytes,
             bool is_write) {
    // Writes keep the default read-for-ownership fill: the kernels use
    // plain stores, and the RFO stream is part of the measured traffic
    // the analytic model was validated against.
    sim_.touch(core, stream_base(s) + off, bytes, is_write);
  }

  // One row_ptr entry per row per sweep (consecutive rows share the
  // pair's second element).
  void rp_pair() { matrix_bytes_ += sizeof(index_t); }

  void diag() { matrix_bytes_ += static_cast<double>(vb_); }

  void stream(std::uint64_t count) {
    matrix_bytes_ +=
        static_cast<double>(count) * (cib_ + static_cast<double>(vb_));
  }

  SharedCacheSim& sim_;
  const ReplayWorld& w_;
  double cib_;
  std::size_t vb_;
  std::size_t lane_;
  double matrix_bytes_ = 0.0;
};

/// Fraction of one sweep's vector bytes the scaled LLC holds: below
/// 1.0 so cross-sweep re-streams miss (the DRAM-resident regime), and
/// above the worst cross-color gather distance — (C-1)/C of a sweep
/// for C colors — so well-ordered gathers still hit.
constexpr double kLlcSweepFraction = 0.8;

/// Builds the replay hierarchy with the LLC sized to `llc_target`
/// bytes at way granularity: the set count stays a power of two (the
/// indexing invariant) while the way count absorbs the remainder,
/// landing within ~6% of the target. make_shared_xeon_like's
/// power-of-two rounding can be off by 2x, which here would straddle
/// the regime boundary the fraction above aims between.
SharedCacheSim make_replay_sim(int threads, double llc_target) {
  constexpr std::size_t kLine = 64;
  const auto target = static_cast<std::size_t>(llc_target);
  std::size_t sets = 1;
  while (sets * 2 * 16 * kLine <= target) sets *= 2;
  const std::size_t ways = std::clamp<std::size_t>(
      (target + sets * kLine / 2) / (sets * kLine), 8, 32);
  const double scale = llc_target / 32e6;
  return SharedCacheSim(
      threads,
      {CacheConfig{xeon_like_level_bytes(0, scale), 8, kLine},
       CacheConfig{xeon_like_level_bytes(1, scale), 16, kLine}},
      CacheConfig{sets * ways * kLine, ways, kLine});
}

/// Shared replay driver: runs the BtB stage walk (head, F/B pairs,
/// tail) over caller-supplied row visit orders, flushes the simulator,
/// and scales the sampled traffic back to the full matrix. The sweep
/// callables invoke visit(core, row) for every sampled row in the
/// forward / backward execution order of the schedule being priced.
/// `seconds` is left for the caller (its timer covers world building).
template <class SweepF, class SweepB>
ReplayPrediction run_replay(const CsrMatrix<double>& a, const ReplayWorld& w,
                            const ReplayConfig& cfg, SweepF&& sweep_fwd,
                            SweepB&& sweep_bwd) {
  ReplayPrediction out;
  out.replayed_rows = static_cast<index_t>(w.rows.size());
  out.replayed_nnz = w.lo_cols.size() + w.up_cols.size();
  out.sample_fraction =
      a.nnz() > 0 ? static_cast<double>(w.replayed_entries) /
                        static_cast<double>(a.nnz())
                  : 1.0;
  if (out.replayed_rows == 0) return out;

  SharedCacheSim sim = [&]() -> SharedCacheSim {
    if (cfg.cache_scale > 0.0) {
      out.cache_scale = cfg.cache_scale;
      return make_shared_xeon_like(cfg.threads, cfg.cache_scale);
    }
    // Size the LLC to the *vector* regime of a DRAM-resident problem
    // (the CSR stream is charged analytically, see RowReplayer): one
    // sweep touches ~3 lane-wide arrays per row, and on the paper's
    // Xeon that working set does not survive to the next sweep while
    // intra-sweep gather bands — a color-gap away at most — do. An LLC
    // just under one sweep's vector bytes reproduces both, and the
    // way-granular sizing keeps it off the regime boundaries that
    // power-of-two rounding would straddle.
    const double lane = 8.0 * static_cast<double>(cfg.nvec);
    const double sweep_vec =
        3.0 * lane * static_cast<double>(out.replayed_rows);
    const double llc = std::max(8192.0, kLlcSweepFraction * sweep_vec);
    out.cache_scale = llc / 32e6;
    return make_replay_sim(cfg.threads, llc);
  }();
  RowReplayer replay(sim, w, cfg);

  sweep_fwd([&](int core, const RowRef& r) { replay.head(core, r); });
  const int pairs = cfg.k / 2;
  for (int it = 0; it < pairs; ++it) {
    sweep_fwd([&](int core, const RowRef& r) { replay.forward(core, r); });
    const bool prime_next = !(it == pairs - 1 && cfg.k % 2 == 0);
    sweep_bwd([&](int core, const RowRef& r) {
      replay.backward(core, r, prime_next);
    });
  }
  if (cfg.k % 2 == 1)
    sweep_fwd([&](int core, const RowRef& r) { replay.tail(core, r); });
  sim.flush();

  // Scale the sampled traffic back to the full matrix.
  const double up = out.sample_fraction > 0.0 ? 1.0 / out.sample_fraction
                                              : 1.0;
  out.dram_read_bytes = static_cast<std::uint64_t>(
      (static_cast<double>(sim.dram_read_bytes()) + replay.matrix_bytes()) *
      up);
  out.dram_write_bytes = static_cast<std::uint64_t>(
      static_cast<double>(sim.dram_write_bytes()) * up);
  return out;
}

}  // namespace

ReplayPrediction replay_fbmpk_traffic(const CsrMatrix<double>& a,
                                      const AbmcOrdering* ord,
                                      const ReplayConfig& cfg) {
  FBMPK_CHECK(cfg.k >= 1 && cfg.threads >= 1 && cfg.nvec >= 1);
  FBMPK_CHECK(cfg.col_index_bytes > 0.0 && cfg.matrix_value_bytes > 0);
  Timer timer;
  const index_t n = a.rows();
  if (n == 0) return {};

  const ReplayWorld w =
      build_world(a, ord, cfg.threads, cfg.max_sample_rows);

  const auto for_color = [&](index_t c, bool rows_forward, auto&& visit) {
    const auto& threads = w.parts[static_cast<std::size_t>(c)];
    for (std::size_t t = 0; t < threads.size(); ++t) {
      for (std::uint32_t bi : threads[t]) {
        const SampledBlock& b = w.blocks[bi];
        if (rows_forward) {
          for (std::uint32_t i = b.first_row; i < b.last_row; ++i)
            visit(static_cast<int>(t), w.rows[i]);
        } else {
          for (std::uint32_t i = b.last_row; i-- > b.first_row;)
            visit(static_cast<int>(t), w.rows[i]);
        }
      }
    }
  };
  ReplayPrediction out = run_replay(
      a, w, cfg,
      [&](auto&& visit) {
        for (index_t c = 0; c < w.num_colors; ++c) for_color(c, true, visit);
      },
      [&](auto&& visit) {
        for (index_t c = w.num_colors; c-- > 0;) for_color(c, false, visit);
      });
  out.seconds = timer.seconds();
  return out;
}

ReplayPrediction replay_fbmpk_level_traffic(const CsrMatrix<double>& a,
                                            const LevelSchedule& fwd,
                                            const LevelSchedule& bwd,
                                            const ReplayConfig& cfg) {
  FBMPK_CHECK(cfg.k >= 1 && cfg.threads >= 1 && cfg.nvec >= 1);
  FBMPK_CHECK(cfg.col_index_bytes > 0.0 && cfg.matrix_value_bytes > 0);
  FBMPK_CHECK_MSG(fwd.rows.size() == static_cast<std::size_t>(a.rows()) &&
                      bwd.rows.size() == static_cast<std::size_t>(a.rows()),
                  "level schedule does not cover the matrix");
  Timer timer;
  if (a.rows() == 0) return {};

  // Natural order, no permutation: the level scheduler's defining
  // property. Sampling (every S-th synthetic block) is the same as the
  // ABMC replay's; rows absent from the sample are simply skipped in
  // the level walk below.
  const ReplayWorld w =
      build_world(a, nullptr, cfg.threads, cfg.max_sample_rows);

  const auto rank_of = [&](index_t p) -> index_t {
    const auto it = std::lower_bound(
        w.rows.begin(), w.rows.end(), p,
        [](const RowRef& r, index_t v) { return r.p < v; });
    if (it == w.rows.end() || it->p != p) return -1;
    return static_cast<index_t>(it - w.rows.begin());
  };
  // Rows of one level are independent; deal the sampled ones
  // round-robin across the cores (the blocked schedule's LPT pass
  // barely moves the traffic the oracle ranks, as with ABMC blocks).
  const auto for_levels = [&](const LevelSchedule& ls, auto&& visit) {
    for (index_t l = 0; l < ls.num_levels; ++l) {
      index_t lane = 0;
      for (index_t r = ls.level_ptr[l]; r < ls.level_ptr[l + 1]; ++r) {
        const index_t rank = rank_of(ls.rows[r]);
        if (rank < 0) continue;
        visit(static_cast<int>(lane++ % cfg.threads),
              w.rows[static_cast<std::size_t>(rank)]);
      }
    }
  };
  ReplayPrediction out =
      run_replay(a, w, cfg,
                 [&](auto&& visit) { for_levels(fwd, visit); },
                 [&](auto&& visit) { for_levels(bwd, visit); });
  out.seconds = timer.seconds();
  return out;
}

double estimate_packed_index_bytes_per_nnz(const CsrMatrix<double>& a,
                                           const AbmcOrdering* ord,
                                           index_t max_sample_rows) {
  const index_t n = a.rows();
  if (n == 0) return static_cast<double>(sizeof(index_t));
  constexpr index_t kBandRows = 64;  // PackedTriangleIndex default
  constexpr index_t kNarrowSpan = 0xFFFF;
  // Per-band sidecar metadata: base + wide flag + pool offset + row
  // base (packed_tri.hpp Raw arrays), per triangle.
  constexpr double kBandMetaBytes = 2.0 * sizeof(index_t) + 1.0 + 8.0;

  const index_t num_bands = (n + kBandRows - 1) / kBandRows;
  index_t stride = 1;
  if (max_sample_rows > 0 && n > max_sample_rows)
    stride = (n + max_sample_rows - 1) / max_sample_rows;

  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  std::vector<index_t> inv;
  if (ord != nullptr) inv = ord->perm.inverse();

  double bytes = 0.0;
  std::uint64_t nnz = 0;
  for (index_t band = 0; band < num_bands; band += stride) {
    const index_t p0 = band * kBandRows;
    const index_t p1 = std::min<index_t>(p0 + kBandRows, n);
    index_t lo_min = n, lo_max = -1, up_min = n, up_max = -1;
    std::uint64_t lo_nnz = 0, up_nnz = 0;
    for (index_t p = p0; p < p1; ++p) {
      const index_t r = ord != nullptr ? ord->perm.old_of(p) : p;
      for (index_t e = rp[r]; e < rp[r + 1]; ++e) {
        const index_t pc = ord != nullptr ? inv[ci[e]] : ci[e];
        if (pc < p) {
          lo_min = std::min(lo_min, pc);
          lo_max = std::max(lo_max, pc);
          ++lo_nnz;
        } else if (pc > p) {
          up_min = std::min(up_min, pc);
          up_max = std::max(up_max, pc);
          ++up_nnz;
        }
      }
    }
    const auto band_bytes = [&](std::uint64_t bnnz, index_t mn, index_t mx) {
      if (bnnz == 0) return kBandMetaBytes;
      const double width =
          (mx - mn) <= kNarrowSpan ? 2.0 : static_cast<double>(sizeof(index_t));
      return static_cast<double>(bnnz) * width + kBandMetaBytes;
    };
    bytes += band_bytes(lo_nnz, lo_min, lo_max);
    bytes += band_bytes(up_nnz, up_min, up_max);
    nnz += lo_nnz + up_nnz;
  }
  if (nnz == 0) return static_cast<double>(sizeof(index_t));
  return bytes / static_cast<double>(nnz);
}

}  // namespace fbmpk::perf
