// Tests for src/perf: analytic traffic model, cache simulator, parallel
// cost model and harness utilities.
#include <gtest/gtest.h>

#include "core/fbmpk.hpp"
#include "gen/stencil.hpp"
#include "support/aligned_buffer.hpp"
#include "telemetry/hw_counters.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/mpk_baseline.hpp"
#include "kernels/spmv.hpp"
#include "gen/kkt.hpp"
#include "gen/random_sparse.hpp"
#include "perf/cache_sim.hpp"
#include "perf/cost_model.hpp"
#include "perf/harness.hpp"
#include "perf/sweep_replay.hpp"
#include "perf/traffic_model.hpp"
#include "reorder/abmc.hpp"
#include "sparse/split.hpp"
#include "test_util.hpp"

namespace fbmpk::perf {
namespace {

TEST(TrafficModel, SweepCountsMatchPaperFormulas) {
  // §III-B: standard reads A k times; FBMPK ~(k+1)/2 times.
  EXPECT_DOUBLE_EQ(standard_sweep_count(5), 5.0);
  EXPECT_DOUBLE_EQ(fbmpk_sweep_count(3), 2.0);
  EXPECT_DOUBLE_EQ(fbmpk_sweep_count(9), 5.0);
  EXPECT_DOUBLE_EQ(fbmpk_sweep_count(6), 3.5);
  EXPECT_DOUBLE_EQ(fbmpk_sweep_count(1), 1.0);
}

TEST(TrafficModel, RatioApproachesHalfForDenseRowsAndLargeK) {
  MatrixShape m;
  m.rows = 100000;
  m.nnz = 100000 * 80;  // audikw-like density
  m.diag_entries = 100000;
  // k=9: theory (k+1)/2k = 0.556 plus vector overhead.
  const double r = traffic_ratio(m, 9);
  EXPECT_GT(r, 0.5);
  EXPECT_LT(r, 0.65);
}

TEST(TrafficModel, SparseMatricesBenefitLess) {
  // §V-C: G3_circuit-like sparsity (~4.8/row) has vector-dominated
  // traffic, so the ratio is much worse than the dense-row case.
  MatrixShape sparse{100000, 100000 * 5, 100000};
  MatrixShape dense{100000, 100000 * 80, 100000};
  EXPECT_GT(traffic_ratio(sparse, 9), traffic_ratio(dense, 9));
}

TEST(TrafficModel, RatioImprovesWithK) {
  MatrixShape m{100000, 100000 * 40, 100000};
  EXPECT_GT(traffic_ratio(m, 3), traffic_ratio(m, 6));
  EXPECT_GT(traffic_ratio(m, 6), traffic_ratio(m, 9));
}

TEST(TrafficModel, MatrixBytesScaleWithSweeps) {
  MatrixShape m{1000, 20000, 1000};
  const auto t3 = standard_mpk_traffic(m, 3);
  const auto t9 = standard_mpk_traffic(m, 9);
  EXPECT_EQ(t9.matrix_bytes, 3 * t3.matrix_bytes);
}

TEST(CacheSim, ColdMissesThenHits) {
  CacheHierarchy sim({CacheConfig{4096, 4, 64}});
  double data[8] = {};
  sim.access(reinterpret_cast<std::uintptr_t>(&data[0]), false);
  EXPECT_EQ(sim.level_stats(0).misses, 1u);
  sim.access(reinterpret_cast<std::uintptr_t>(&data[1]), false);  // same line
  EXPECT_EQ(sim.level_stats(0).hits, 1u);
  EXPECT_EQ(sim.dram_read_bytes(), 64u);
}

TEST(CacheSim, CapacityEvictionCausesRereads) {
  // 4 KB direct-ish cache; stream 64 KB twice: everything misses twice.
  CacheHierarchy sim({CacheConfig{4096, 4, 64}});
  AlignedVector<double> data(8192);
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < data.size(); i += 8)
      sim.access(reinterpret_cast<std::uintptr_t>(&data[i]), false);
  EXPECT_EQ(sim.dram_read_bytes(), 2u * data.size() * sizeof(double));
}

TEST(CacheSim, FitsInCacheReadOnceRegime) {
  // Working set smaller than the cache: second pass hits entirely.
  CacheHierarchy sim({CacheConfig{64 * 1024, 8, 64}});
  AlignedVector<double> data(1024);  // 8 KB
  for (int pass = 0; pass < 3; ++pass)
    for (auto& v : data) sim.access(reinterpret_cast<std::uintptr_t>(&v), false);
  EXPECT_EQ(sim.dram_read_bytes(), data.size() * sizeof(double));
}

TEST(CacheSim, DirtyEvictionWritesBack) {
  CacheHierarchy sim({CacheConfig{4096, 4, 64}});
  AlignedVector<double> data(4096);  // 32 KB streamed writes
  for (std::size_t i = 0; i < data.size(); i += 8)
    sim.access(reinterpret_cast<std::uintptr_t>(&data[i]), true);
  sim.flush();
  EXPECT_EQ(sim.dram_write_bytes(), data.size() * sizeof(double));
}

TEST(CacheSim, MultiLevelFiltersTraffic) {
  // Working set fits L2 but not L1: DRAM sees it only once.
  CacheHierarchy sim({CacheConfig{4096, 4, 64},
                      CacheConfig{128 * 1024, 8, 64}});
  AlignedVector<double> data(8192);  // 64 KB
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t i = 0; i < data.size(); i += 8)
      sim.access(reinterpret_cast<std::uintptr_t>(&data[i]), false);
  EXPECT_EQ(sim.dram_read_bytes(), data.size() * sizeof(double));
  EXPECT_GT(sim.level_stats(0).misses, 3u * 1024u);  // L1 thrashes
}

TEST(CacheSim, ClearResetsEverything) {
  CacheHierarchy sim({CacheConfig{4096, 4, 64}});
  double v = 0;
  sim.access(reinterpret_cast<std::uintptr_t>(&v), true);
  sim.clear();
  EXPECT_EQ(sim.dram_read_bytes(), 0u);
  EXPECT_EQ(sim.level_stats(0).misses, 0u);
}

TEST(CacheSim, RejectsBadGeometry) {
  EXPECT_THROW(CacheHierarchy({}), Error);
  EXPECT_THROW(CacheHierarchy({CacheConfig{0, 8, 64}}), Error);
  EXPECT_THROW(CacheHierarchy({CacheConfig{4096, 8, 48}}), Error);
}

TEST(CacheSim, TracedSpmvTrafficNearMatrixSize) {
  // Matrix far larger than the cache: DRAM reads of one SpMV must be
  // close to (and at least) the matrix + vector footprint.
  const auto a = test::random_matrix(20000, 16.0, true, 3);
  const auto x = test::random_vector(a.rows(), 4);
  AlignedVector<double> y(a.rows());
  // L1 far smaller than the matrix, L2 large enough to hold the dense
  // vectors — the standard SpMV streaming regime.
  CacheHierarchy sim({CacheConfig{32 * 1024, 8, 64},
                      CacheConfig{1024 * 1024, 16, 64}});
  CacheTracer tracer{&sim};
  spmv_traced<double>(a, x, y, tracer, SpmvExec::kSerial);
  const double matrix_bytes =
      static_cast<double>(csr_sweep_bytes(a.rows(), a.nnz(), 8));
  const double measured = static_cast<double>(sim.dram_read_bytes());
  EXPECT_GT(measured, matrix_bytes * 0.9);
  EXPECT_LT(measured, matrix_bytes * 2.5);  // + vector gather traffic
}

TEST(CacheSim, TracedFbmpkReadsLessThanTracedBaseline) {
  // The headline claim, measured in simulation (Fig 9's mechanism).
  const auto a = test::random_matrix(20000, 16.0, true, 5);
  const index_t n = a.rows();
  const auto x = test::random_vector(n, 6);
  const auto s = split_triangular(a);
  const int k = 6;

  CacheHierarchy sim_fb = make_xeon_like_hierarchy(0.02);
  CacheTracer tr_fb{&sim_fb};
  FbWorkspace<double> fws;
  AlignedVector<double> y(n);
  fbmpk_sweep_btb(
      s, std::span<const double>(x), k, fws,
      [&](int p, index_t i, double v) {
        if (p == k) y[i] = v;
      },
      tr_fb);
  sim_fb.flush();

  CacheHierarchy sim_base = make_xeon_like_hierarchy(0.02);
  CacheTracer tr_base{&sim_base};
  MpkWorkspace<double> mws;
  mpk_standard_sweep_traced(
      a, std::span<const double>(x), k, mws,
      [&](int, index_t, double) {}, tr_base, SpmvExec::kSerial);
  sim_base.flush();

  const double ratio = static_cast<double>(sim_fb.dram_total_bytes()) /
                       static_cast<double>(sim_base.dram_total_bytes());
  // Theory for k=6: (k+1)/2k = 0.58; vector overhead pushes it up, but
  // it must clearly beat 1.0.
  EXPECT_LT(ratio, 0.85);
  EXPECT_GT(ratio, 0.45);
}

TEST(CostModel, FourPlatformsExist) {
  EXPECT_EQ(paper_platforms().size(), 4u);
  EXPECT_EQ(platform_by_name("Xeon").name, "Xeon");
  EXPECT_THROW(platform_by_name("M1"), Error);
}

TEST(CostModel, SpeedupGrowsThenSaturates) {
  const auto a = gen::make_laplacian_3d(30, 30, 30);
  AbmcOptions opts;
  opts.num_blocks = 512;
  const auto o = abmc_order(a, opts);
  const auto permuted = permute_symmetric(a, o.perm);
  const auto w = WorkloadShape::of(permuted, o);
  const auto p = platform_by_name("FT2000+");

  double prev = 0.0;
  for (int t : {1, 4, 16, 64}) {
    const double s = predict_fbmpk_scalability(p, w, 5, t);
    EXPECT_GT(s, prev * 0.99) << t << " threads";
    prev = s;
  }
  // Scaling must be sublinear at 64 threads but still significant.
  EXPECT_GT(prev, 4.0);
  EXPECT_LT(prev, 64.0);
}

// A paper-scale workload (audikw_1-like: 0.94M rows, 78M nnz) described
// directly — the model needs only the shape, not a real matrix.
WorkloadShape paper_scale_workload(index_t colors = 4,
                                   index_t blocks = 512) {
  WorkloadShape w;
  w.rows = 940'000;
  w.nnz = 77'650'000;
  for (index_t c = 0; c < colors; ++c) {
    w.blocks_per_color.push_back(blocks / colors);
    w.nnz_per_color.push_back(w.nnz / colors);
  }
  return w;
}

TEST(CostModel, FbmpkBeatsStandardAtEqualThreadsOnPaperScale) {
  const auto w = paper_scale_workload();
  for (const auto& p : paper_platforms()) {
    const double std_s = predict_standard_mpk_seconds(p, w, 5, p.cores);
    const double fb_s = predict_fbmpk_seconds(p, w, 5, p.cores);
    EXPECT_LT(fb_s, std_s) << p.name;
    // Fig 7 regime: speedups live between 1x and ~2.5x.
    EXPECT_LT(std_s / fb_s, 2.6) << p.name;
  }
}

TEST(CostModel, BarriersDominateTinyMatrices) {
  // The cant phenomenon (§V-A): on a matrix 500x smaller, FBMPK's extra
  // color barriers can erase the traffic win at full thread count.
  auto w = paper_scale_workload();
  w.rows /= 500;
  w.nnz /= 500;
  for (auto& v : w.nnz_per_color) v /= 500;
  const auto p = platform_by_name("FT2000+");
  const double std_s = predict_standard_mpk_seconds(p, w, 5, p.cores);
  const double fb_s = predict_fbmpk_seconds(p, w, 5, p.cores);
  EXPECT_GT(fb_s, std_s * 0.8);  // no clear FBMPK win here
}

TEST(CostModel, SmallMatrixSuffersFromBarriers) {
  // cant's behavior (§V-A): tiny blocks per color make many-thread runs
  // barrier-bound, so speedup over few threads degrades or stalls.
  const auto a = gen::make_laplacian_2d(40, 40);  // 1600 rows only
  AbmcOptions opts;
  opts.num_blocks = 512;
  const auto o = abmc_order(a, opts);
  const auto permuted = permute_symmetric(a, o.perm);
  const auto w = WorkloadShape::of(permuted, o);
  const auto p = platform_by_name("FT2000+");
  const double s24 = predict_fbmpk_scalability(p, w, 5, 24);
  const double s64 = predict_fbmpk_scalability(p, w, 5, 64);
  EXPECT_LT(s64, s24 * 1.5);  // no meaningful gain from 24 -> 64
}

TEST(Harness, TimeRunsCollectsRequestedReps) {
  int calls = 0;
  const auto stats = time_runs([&] { ++calls; }, 5, 2);
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(stats.count(), 5u);
}

TEST(Harness, TableFormatting) {
  EXPECT_EQ(Table::fmt(1.234567, 2), "1.23");
  EXPECT_EQ(Table::fmt_ratio(1.5), "1.50x");
  EXPECT_EQ(Table::fmt_percent(0.581), "58.1%");
}

TEST(Harness, TableRejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Harness, ParseOptions) {
  const char* argv[] = {"bench",          "--scale=0.5",
                        "--reps=7",       "--matrices=pwtk,cant",
                        "--k=3,5,7",      "--threads=4",
                        "--blocks=1024",  "--warmup=0"};
  const auto o =
      BenchOptions::parse(8, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(o.scale, 0.5);
  EXPECT_EQ(o.reps, 7);
  EXPECT_EQ(o.matrices, (std::vector<std::string>{"pwtk", "cant"}));
  EXPECT_EQ(o.powers, (std::vector<int>{3, 5, 7}));
  EXPECT_EQ(o.threads, 4);
  EXPECT_EQ(o.num_blocks, 1024);
  EXPECT_EQ(o.warmup, 0);
}

TEST(Harness, ParseRejectsUnknownFlag) {
  const char* argv[] = {"bench", "--bogus=1"};
  EXPECT_THROW(BenchOptions::parse(2, const_cast<char**>(argv)), Error);
}

// ---------------------------------------------------------------------------
// SharedCacheSim: N private hierarchies over one shared inclusive LLC
// (PR 8). Synthetic streams with hand-counted hit/miss totals.
// ---------------------------------------------------------------------------

// Geometry used throughout: 512 B 2-way private L1 (4 sets) so
// conflicts are easy to construct, one 4 KB 8-way LLC.
SharedCacheSim tiny_shared(int cores, std::size_t llc_bytes = 4096) {
  return SharedCacheSim(cores, {CacheConfig{512, 2, 64}},
                        CacheConfig{llc_bytes, 8, 64});
}

TEST(SharedCacheSim, ColdMissFillsEveryLevelThenHitsInL1) {
  auto sim = tiny_shared(2);
  sim.access(0, 0x1000, false);
  EXPECT_EQ(sim.private_stats(0, 0).misses, 1u);
  EXPECT_EQ(sim.llc_stats().misses, 1u);
  EXPECT_EQ(sim.dram_read_bytes(), 64u);

  sim.access(0, 0x1008, false);  // same line, same core: L1 hit
  EXPECT_EQ(sim.private_stats(0, 0).hits, 1u);
  EXPECT_EQ(sim.dram_read_bytes(), 64u);
}

TEST(SharedCacheSim, SecondCoreHitsSharedLlcWithoutDram) {
  auto sim = tiny_shared(2);
  sim.access(0, 0x1000, false);
  sim.access(1, 0x1000, false);  // private miss, LLC hit — no DRAM
  EXPECT_EQ(sim.private_stats(1, 0).misses, 1u);
  EXPECT_EQ(sim.llc_stats().hits, 1u);
  EXPECT_EQ(sim.dram_read_bytes(), 64u);
}

TEST(SharedCacheSim, AssociativityConflictEvictsLruWay) {
  auto sim = tiny_shared(1);
  // L1: 4 sets * 2 ways. Lines 0x0000, 0x0400, 0x0800 all map to set 0
  // (stride = sets * line = 256 B; use 1 KB stride to be safe).
  sim.access(0, 0x0000, false);
  sim.access(0, 0x0400, false);
  sim.access(0, 0x0000, false);  // hit: makes 0x0400 the LRU way
  EXPECT_EQ(sim.private_stats(0, 0).hits, 1u);
  sim.access(0, 0x0800, false);  // conflict: evicts LRU 0x0400
  sim.access(0, 0x0000, false);  // survives — still a hit
  EXPECT_EQ(sim.private_stats(0, 0).hits, 2u);
  sim.access(0, 0x0400, false);  // was evicted — misses in L1
  EXPECT_EQ(sim.private_stats(0, 0).misses, 4u);
  // All three lines stayed resident in the LLC: one DRAM read each.
  EXPECT_EQ(sim.dram_read_bytes(), 3u * 64u);
}

TEST(SharedCacheSim, InclusiveLlcBackInvalidatesPrivateCopies) {
  // LLC of 8 lines (512 B, 8-way, 1 set), private L1 big enough to
  // hold everything — inclusion is what must evict the private copy.
  SharedCacheSim sim(1, {CacheConfig{64 * 1024, 8, 64}},
                     CacheConfig{512, 8, 64});
  sim.access(0, 0x0000, false);
  for (int i = 1; i <= 8; ++i)  // fill the LLC's single set: evicts 0x0
    sim.access(0, static_cast<std::uintptr_t>(i) * 64, false);
  // The L1 never overflowed, but inclusion dropped its copy of 0x0.
  sim.access(0, 0x0000, false);
  EXPECT_EQ(sim.private_stats(0, 0).misses, 10u);  // 9 cold + 1 re-read
  EXPECT_EQ(sim.dram_read_bytes(), 10u * 64u);
}

TEST(SharedCacheSim, BackInvalidatedDirtyLineIsWrittenToDram) {
  SharedCacheSim sim(1, {CacheConfig{64 * 1024, 8, 64}},
                     CacheConfig{512, 8, 64});
  sim.access(0, 0x0000, true);  // dirty in L1 only
  for (int i = 1; i <= 8; ++i)
    sim.access(0, static_cast<std::uintptr_t>(i) * 64, false);
  // Evicting 0x0 from the LLC found a dirty private copy: one DRAM
  // write, even though the L1 never evicted it.
  EXPECT_EQ(sim.dram_write_bytes(), 64u);
  sim.flush();  // the line is gone everywhere — no double count
  EXPECT_EQ(sim.dram_write_bytes(), 64u);
}

TEST(SharedCacheSim, FlushWritesEachDirtyLineOnce) {
  auto sim = tiny_shared(2);
  sim.access(0, 0x0000, true);
  sim.access(0, 0x0040, true);
  sim.access(1, 0x2000, true);
  sim.access(0, 0x0000, false);  // re-read must not clear dirty
  EXPECT_EQ(sim.dram_write_bytes(), 0u);
  sim.flush();
  EXPECT_EQ(sim.dram_write_bytes(), 3u * 64u);
  sim.flush();  // idempotent: everything clean now
  EXPECT_EQ(sim.dram_write_bytes(), 3u * 64u);
}

TEST(SharedCacheSim, TouchCoversEveryLineOfTheRange) {
  auto sim = tiny_shared(1);
  sim.touch(0, 0x0000, 130, false);  // lines 0, 1, 2
  EXPECT_EQ(sim.dram_read_bytes(), 3u * 64u);
  sim.touch(0, 0x0020, 64, false);  // straddles lines 0 and 1: both hit
  EXPECT_EQ(sim.private_stats(0, 0).hits, 2u);
  EXPECT_EQ(sim.dram_read_bytes(), 3u * 64u);
}

TEST(SharedCacheSim, ClearResetsCountersAndContents) {
  auto sim = tiny_shared(2);
  sim.access(0, 0x0000, true);
  sim.access(1, 0x1000, false);
  sim.clear();
  EXPECT_EQ(sim.dram_read_bytes(), 0u);
  EXPECT_EQ(sim.dram_write_bytes(), 0u);
  EXPECT_EQ(sim.llc_stats().misses, 0u);
  sim.access(0, 0x0000, false);  // cold again after clear
  EXPECT_EQ(sim.private_stats(0, 0).misses, 1u);
  sim.flush();
  EXPECT_EQ(sim.dram_write_bytes(), 0u);  // dirty bit did not survive
}

// ---------------------------------------------------------------------------
// Sampled replay vs the analytic model. In the matrix >> LLC regime
// both count the same compulsory stream, so the sampled replay must
// land within 15% of fbmpk_traffic_mixed on the suite's families.
// ---------------------------------------------------------------------------

void expect_replay_matches_model(const CsrMatrix<double>& a,
                                 const char* label) {
  SCOPED_TRACE(label);
  const int k = 4;
  const AbmcOrdering ord = abmc_order(a, AbmcOptions{});

  ReplayConfig cfg;
  cfg.k = k;
  cfg.threads = 1;  // the analytic model is single-stream
  const ReplayPrediction pred = replay_fbmpk_traffic(a, &ord, cfg);
  ASSERT_GT(pred.replayed_rows, 0);
  ASSERT_GT(pred.dram_read_bytes, 0u);

  const TrafficEstimate model = fbmpk_traffic_mixed(
      MatrixShape::of(a), k, static_cast<double>(sizeof(index_t)),
      ValuePrecision::kFp64);
  const double sim = static_cast<double>(pred.dram_total_bytes());
  const double ref = static_cast<double>(model.total());
  EXPECT_LT(std::abs(sim - ref) / ref, 0.15)
      << "replay " << sim << " vs model " << ref << " ("
      << pred.replayed_rows << " rows sampled, cache scale "
      << pred.cache_scale << ")";
}

TEST(SweepReplay, MatchesAnalyticModelOnStencil) {
  expect_replay_matches_model(gen::make_laplacian_2d(120, 120), "laplacian2d");
}

TEST(SweepReplay, MatchesAnalyticModelOnBlockStencil) {
  gen::BlockStencilOptions o;
  o.dof = 3;
  expect_replay_matches_model(gen::make_block_stencil({16, 16, 16}, o),
                              "stencil3d_dof3");
}

TEST(SweepReplay, MatchesAnalyticModelOnRandomBanded) {
  gen::RandomBandedOptions o;
  o.bandwidth = 600;
  expect_replay_matches_model(gen::make_random_banded(16000, o), "banded");
}

TEST(SweepReplay, MatchesAnalyticModelOnKkt) {
  expect_replay_matches_model(gen::make_kkt_saddle(16, 16, 16, {}), "kkt");
}

TEST(SweepReplay, SamplingBoundsReplayedRowsAndStaysConsistent) {
  const auto a = gen::make_laplacian_2d(100, 100);  // 10k rows
  const AbmcOrdering ord = abmc_order(a, AbmcOptions{});
  ReplayConfig cfg;
  cfg.max_sample_rows = 1024;
  const auto sampled = replay_fbmpk_traffic(a, &ord, cfg);
  EXPECT_LE(sampled.replayed_rows, 2048);  // bound + one block of slack
  EXPECT_LT(sampled.sample_fraction, 0.5);

  // The sampled estimate tracks the full replay within the tolerance
  // the oracle needs for *ranking* (generous 25% here).
  cfg.max_sample_rows = 0;  // replay everything
  const auto full = replay_fbmpk_traffic(a, &ord, cfg);
  EXPECT_EQ(full.replayed_rows, a.rows());
  const double s = static_cast<double>(sampled.dram_total_bytes());
  const double f = static_cast<double>(full.dram_total_bytes());
  EXPECT_LT(std::abs(s - f) / f, 0.25)
      << "sampled " << s << " vs full " << f;
}

TEST(SweepReplay, CompressedIndicesAndFp32ShrinkPrediction) {
  const auto a = gen::make_laplacian_2d(80, 80);
  const AbmcOrdering ord = abmc_order(a, AbmcOptions{});
  ReplayConfig cfg;
  const auto plain = replay_fbmpk_traffic(a, &ord, cfg);

  const double packed = estimate_packed_index_bytes_per_nnz(a, &ord);
  EXPECT_LT(packed, static_cast<double>(sizeof(index_t)));
  cfg.col_index_bytes = packed;
  const auto compressed = replay_fbmpk_traffic(a, &ord, cfg);
  EXPECT_LT(compressed.dram_total_bytes(), plain.dram_total_bytes());

  cfg.matrix_value_bytes = sizeof(float);
  const auto fp32 = replay_fbmpk_traffic(a, &ord, cfg);
  EXPECT_LT(fp32.dram_total_bytes(), compressed.dram_total_bytes());
}

TEST(SweepReplay, BatchedVectorsScaleVectorTrafficOnly) {
  const auto a = gen::make_laplacian_2d(80, 80);
  const AbmcOrdering ord = abmc_order(a, AbmcOptions{});
  ReplayConfig cfg;
  const auto one = replay_fbmpk_traffic(a, &ord, cfg);
  cfg.nvec = 4;
  const auto four = replay_fbmpk_traffic(a, &ord, cfg);
  // More traffic than one vector, less than 4x (matrix read once).
  EXPECT_GT(four.dram_total_bytes(), one.dram_total_bytes());
  EXPECT_LT(four.dram_total_bytes(), 4u * one.dram_total_bytes());
}

TEST(SharedCacheSim, XeonFactoryShapesAndScales) {
  auto sim = make_shared_xeon_like(4, 1.0);
  EXPECT_EQ(sim.cores(), 4);
  EXPECT_EQ(sim.num_private_levels(), 2u);
  EXPECT_EQ(sim.line_bytes(), 64u);
  EXPECT_GT(xeon_like_level_bytes(2, 1.0), xeon_like_level_bytes(1, 1.0));
  EXPECT_GT(xeon_like_level_bytes(1, 1.0), xeon_like_level_bytes(0, 1.0));
  // Scaling shrinks every level but respects the 4 KB floor.
  EXPECT_LT(xeon_like_level_bytes(2, 0.01), xeon_like_level_bytes(2, 1.0));
  EXPECT_GE(xeon_like_level_bytes(0, 1e-9), 4096u);
}

TEST(SharedCacheSim, StreamingStoreSkipsFetchButPaysWriteback) {
  // Write-validate path: a 4 KB write stream through a tiny hierarchy
  // costs no DRAM reads, but every dirty line flushes out.
  auto sim = tiny_shared(1);
  for (std::uintptr_t a = 0; a < 4096; a += 64)
    sim.access(0, a, /*is_write=*/true, /*fetch_on_miss=*/false);
  EXPECT_EQ(sim.dram_read_bytes(), 0u);
  sim.flush();
  EXPECT_EQ(sim.dram_write_bytes(), 4096u);
  // The installed lines are real: re-reading them costs nothing new.
  sim.access(0, 4096 - 64, false);
  EXPECT_EQ(sim.dram_read_bytes(), 0u);
}

TEST(SweepReplay, MatchesPerfEventDramTrafficWhenPmuAvailable) {
  // The acceptance check against real hardware: on machines with
  // direct IMC CAS counters (CAP_PERFMON, bare metal), the replayed
  // prediction must land within 15% of measured DRAM traffic for a
  // DRAM-resident sweep. Skips gracefully everywhere else (VMs,
  // restricted perf_event_paranoid) — the analytic-model agreement
  // tests above still pin the simulator in those environments.
  telemetry::HwCounterGroup hw;
  if (!hw.availability().dram)
    GTEST_SKIP() << "no direct DRAM counters: " << hw.availability().detail;

  const auto a = gen::make_laplacian_2d(1400, 1400);  // ~110 MB > LLC
  const int k = 4;
  MpkPlan plan = MpkPlan::build(a, PlanOptions{});
  AlignedVector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  AlignedVector<double> y(x.size());
  plan.power(x, k, y);  // warm page tables and thread pool

  constexpr int kReps = 3;
  hw.start();
  for (int r = 0; r < kReps; ++r) plan.power(x, k, y);
  const telemetry::HwCounts counts = hw.stop();
  ASSERT_TRUE(counts.dram_direct);
  const double measured =
      static_cast<double>(counts.memory_bytes()) / kReps;

  ReplayConfig cfg;
  cfg.k = k;
  cfg.threads = max_threads();
  const ReplayPrediction pred =
      replay_fbmpk_traffic(a, &plan.schedule(), cfg);
  const double sim = static_cast<double>(pred.dram_total_bytes());
  EXPECT_LT(std::abs(sim - measured) / measured, 0.15)
      << "replay " << sim << " vs measured " << measured;
}

}  // namespace
}  // namespace fbmpk::perf
