// Unit tests for src/reorder: permutations, graphs, RCM, blocking,
// coloring and ABMC.
#include <gtest/gtest.h>

#include "gen/stencil.hpp"
#include "perf/cost_model.hpp"
#include "reorder/abmc.hpp"
#include "reorder/blocking.hpp"
#include "reorder/coloring.hpp"
#include "reorder/graph.hpp"
#include "reorder/nnz_partition.hpp"
#include "reorder/permutation.hpp"
#include "reorder/rcm.hpp"
#include "sparse/ops.hpp"
#include "sparse/split.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

AdjacencyGraph path_graph(index_t n) {
  CooMatrix<double> coo(n, n);
  for (index_t i = 0; i + 1 < n; ++i) {
    coo.add(i, i + 1, 1.0);
    coo.add(i + 1, i, 1.0);
  }
  return adjacency_from_matrix(CsrMatrix<double>::from_coo(coo));
}

TEST(Permutation, IdentityActsTrivially) {
  const auto p = Permutation::identity(5);
  EXPECT_TRUE(p.is_identity());
  const auto a = test::random_matrix(5, 3.0, false, 1);
  EXPECT_EQ(permute_symmetric(a, p), a);
}

TEST(Permutation, RejectsInvalidOrders) {
  EXPECT_THROW(Permutation({0, 0, 1}), Error);  // duplicate
  EXPECT_THROW(Permutation({0, 3, 1}), Error);  // out of range
}

TEST(Permutation, InverseComposesToIdentity) {
  const Permutation p({2, 0, 3, 1});
  const auto inv = p.inverse();
  for (index_t i = 0; i < p.size(); ++i) EXPECT_EQ(inv[p.old_of(i)], i);
}

TEST(Permutation, VectorRoundTrip) {
  const Permutation p({2, 0, 3, 1});
  const std::vector<double> x{10, 20, 30, 40};
  std::vector<double> fwd(4), back(4);
  permute_vector<double>(p, x, fwd);
  EXPECT_EQ(fwd, (std::vector<double>{30, 10, 40, 20}));
  unpermute_vector<double>(p, fwd, back);
  EXPECT_EQ(back, x);
}

TEST(Permutation, SymmetricPermutePreservesSpectrumAction) {
  // (PAP^T)(Px) == P(Ax): check via dense arithmetic.
  const auto a = test::random_matrix(30, 4.0, false, 11);
  const auto p = rcm_order(a);
  const auto b = permute_symmetric(a, p);
  const auto x = test::random_vector(30, 5);
  std::vector<double> ax(30), px(30), bpx(30), pax(30);
  const auto ad = to_dense(a);
  const auto bd = to_dense(b);
  for (index_t i = 0; i < 30; ++i) {
    double s1 = 0;
    for (index_t j = 0; j < 30; ++j) s1 += ad[i * 30 + j] * x[j];
    ax[i] = s1;
  }
  permute_vector<double>(p, x, px);
  for (index_t i = 0; i < 30; ++i) {
    double s2 = 0;
    for (index_t j = 0; j < 30; ++j) s2 += bd[i * 30 + j] * px[j];
    bpx[i] = s2;
  }
  permute_vector<double>(p, ax, pax);
  test::expect_near_rel(bpx, pax, 1e-12);
}

TEST(Permutation, ComposeAppliesRightFirst) {
  const Permutation p({1, 2, 0});
  const Permutation q({2, 0, 1});
  const auto r = p.compose(q);
  // r.order[i] = q.order[p.order[i]]
  EXPECT_EQ(r.old_of(0), q.old_of(1));
}

TEST(Graph, AdjacencySymmetrizesPattern) {
  CooMatrix<double> coo(3, 3);
  coo.add(0, 1, 1.0);  // only one direction stored
  coo.add(2, 2, 1.0);  // self loop must be dropped
  const auto g =
      adjacency_from_matrix(CsrMatrix<double>::from_coo(coo));
  g.validate();
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, NoDuplicateEdges) {
  CooMatrix<double> coo(2, 2);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 2.0);  // both directions stored -> one undirected edge
  const auto g = adjacency_from_matrix(CsrMatrix<double>::from_coo(coo));
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, QuotientCollapsesBlocks) {
  const auto g = path_graph(6);
  // Blocks {0,1}, {2,3}, {4,5}: quotient is a path of 3 blocks.
  const std::vector<index_t> block_of{0, 0, 1, 1, 2, 2};
  const CsrPattern pattern{g.ptr, g.adj};
  const auto q = block_quotient(pattern, block_of, 3);
  q.validate();
  EXPECT_EQ(q.degree(0), 1);
  EXPECT_EQ(q.degree(1), 2);
  EXPECT_EQ(q.degree(2), 1);
}

TEST(Rcm, ReducesBandwidthOfShuffledGrid) {
  const auto grid = gen::make_laplacian_2d(20, 20);
  // Shuffle with a deterministic permutation to destroy locality.
  std::vector<index_t> shuffled(400);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  Rng rng(77);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  const auto scrambled = permute_symmetric(grid, Permutation(shuffled));
  const auto restored = permute_symmetric(scrambled, rcm_order(scrambled));
  EXPECT_LT(bandwidth(restored), bandwidth(scrambled) / 4);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  CooMatrix<double> coo(6, 6);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(3, 4, 1.0);
  coo.add(4, 3, 1.0);  // vertices 2 and 5 isolated
  const auto a = CsrMatrix<double>::from_coo(coo);
  const auto p = rcm_order(a);
  EXPECT_EQ(p.size(), 6);  // valid permutation covering all vertices
}

TEST(Rcm, PseudoPeripheralOnPathIsEndpoint) {
  const auto g = path_graph(9);
  const index_t v = pseudo_peripheral_vertex(g, 4);
  EXPECT_TRUE(v == 0 || v == 8);
}

TEST(Blocking, ContiguousBalancedSizes) {
  AdjacencyGraph empty;
  const auto b = build_blocking(empty, 10, 3, BlockingStrategy::kContiguous);
  EXPECT_TRUE(is_valid_blocking(b, 10));
  EXPECT_EQ(b.num_blocks, 3);
  EXPECT_EQ(b.block_size(0), 4);
  EXPECT_EQ(b.block_size(1), 3);
  EXPECT_EQ(b.block_size(2), 3);
}

TEST(Blocking, ClampsBlockCount) {
  AdjacencyGraph empty;
  const auto b = build_blocking(empty, 5, 100, BlockingStrategy::kContiguous);
  EXPECT_EQ(b.num_blocks, 5);
  EXPECT_TRUE(is_valid_blocking(b, 5));
}

TEST(Blocking, BfsCoversAllRowsOnce) {
  const auto a = gen::make_laplacian_2d(15, 15);
  const auto g = adjacency_from_matrix(a);
  const auto b = build_blocking(g, g.n, 16, BlockingStrategy::kBfs);
  EXPECT_TRUE(is_valid_blocking(b, g.n));
}

TEST(Blocking, BfsGroupsConnectedRows) {
  // On a path graph, BFS blocking must yield contiguous runs.
  const auto g = path_graph(12);
  const auto b = build_blocking(g, 12, 4, BlockingStrategy::kBfs);
  for (index_t blk = 0; blk < 4; ++blk)
    for (index_t k = b.block_ptr[blk] + 1; k < b.block_ptr[blk + 1]; ++k)
      EXPECT_EQ(b.row_order[k], b.row_order[k - 1] + 1);
}

TEST(Coloring, PathNeedsTwoColors) {
  const auto g = path_graph(10);
  const auto c = greedy_color(g);
  EXPECT_EQ(c.num_colors, 2);
  EXPECT_TRUE(is_valid_coloring(g, c));
}

TEST(Coloring, CompleteGraphNeedsNColors) {
  CooMatrix<double> coo(5, 5);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 5; ++j)
      if (i != j) coo.add(i, j, 1.0);
  const auto g = adjacency_from_matrix(CsrMatrix<double>::from_coo(coo));
  const auto c = greedy_color(g);
  EXPECT_EQ(c.num_colors, 5);
  EXPECT_TRUE(is_valid_coloring(g, c));
}

TEST(Coloring, AllOrdersProduceValidColorings) {
  const auto a = test::random_matrix(200, 6.0, true, 13);
  const auto g = adjacency_from_matrix(a);
  for (auto order : {ColoringOrder::kNatural, ColoringOrder::kLargestDegreeFirst,
                     ColoringOrder::kSmallestLast}) {
    const auto c = greedy_color(g, order);
    EXPECT_TRUE(is_valid_coloring(g, c));
    EXPECT_GE(c.num_colors, 2);
  }
}

TEST(Coloring, IsolatedVerticesShareColorZero) {
  AdjacencyGraph g;
  g.n = 4;
  g.ptr = {0, 0, 0, 0, 0};
  const auto c = greedy_color(g);
  EXPECT_EQ(c.num_colors, 1);
  for (auto col : c.color_of) EXPECT_EQ(col, 0);
}

class AbmcParamTest
    : public ::testing::TestWithParam<std::tuple<index_t, BlockingStrategy>> {
};

TEST_P(AbmcParamTest, ScheduleIsValidOnGrid) {
  const auto [blocks, strategy] = GetParam();
  const auto a = gen::make_laplacian_2d(24, 24);
  AbmcOptions opts;
  opts.num_blocks = blocks;
  opts.blocking = strategy;
  const auto o = abmc_order(a, opts);
  EXPECT_EQ(o.perm.size(), a.rows());
  EXPECT_EQ(o.block_ptr.size(), static_cast<std::size_t>(o.num_blocks) + 1);
  EXPECT_EQ(o.color_ptr.size(), static_cast<std::size_t>(o.num_colors) + 1);
  const auto permuted = permute_symmetric(a, o.perm);
  EXPECT_TRUE(is_valid_schedule(permuted, o));
}

INSTANTIATE_TEST_SUITE_P(
    BlockCountsAndStrategies, AbmcParamTest,
    ::testing::Combine(::testing::Values<index_t>(4, 16, 64, 576),
                       ::testing::Values(BlockingStrategy::kContiguous,
                                         BlockingStrategy::kBfs)));

TEST(Abmc, ColorsPartitionBlocks) {
  const auto a = test::random_matrix(500, 8.0, true, 31);
  AbmcOptions opts;
  opts.num_blocks = 32;
  const auto o = abmc_order(a, opts);
  EXPECT_EQ(o.color_ptr.front(), 0);
  EXPECT_EQ(o.color_ptr.back(), o.num_blocks);
  for (index_t c = 0; c < o.num_colors; ++c)
    EXPECT_LT(o.color_ptr[c], o.color_ptr[c + 1]);  // no empty colors
}

TEST(Abmc, WorksOnUnsymmetricMatrices) {
  const auto a = test::random_matrix(300, 6.0, false, 41);
  AbmcOptions opts;
  opts.num_blocks = 16;
  const auto o = abmc_order(a, opts);
  const auto permuted = permute_symmetric(a, o.perm);
  EXPECT_TRUE(is_valid_schedule(permuted, o));
}

TEST(Abmc, SingleBlockGetsOneColor) {
  const auto a = gen::make_laplacian_2d(5, 5);
  AbmcOptions opts;
  opts.num_blocks = 1;
  const auto o = abmc_order(a, opts);
  EXPECT_EQ(o.num_colors, 1);
  EXPECT_EQ(o.num_blocks, 1);
}

TEST(Abmc, InvalidScheduleIsDetected) {
  // A deliberately broken schedule: same color for adjacent blocks.
  const auto a = gen::make_laplacian_2d(4, 4);
  AbmcOptions opts;
  opts.num_blocks = 4;
  auto o = abmc_order(a, opts);
  // Force everything into one color: invalid unless there is 1 block.
  o.num_colors = 1;
  o.color_ptr = {0, o.num_blocks};
  const auto permuted = permute_symmetric(a, o.perm);
  EXPECT_FALSE(is_valid_schedule(permuted, o));
}

TEST(NnzPartition, LptBalancesSkewedWeightsBetterThanStatic) {
  // One color, one heavy block: static by-count puts the heavy block
  // plus half the light ones on thread 0 (load 11); LPT isolates it
  // (load 8 vs 7).
  AbmcOrdering o;
  o.num_blocks = 8;
  o.num_colors = 1;
  o.color_ptr = {0, 8};
  const std::vector<index_t> w{8, 1, 1, 1, 1, 1, 1, 1};

  const auto stat =
      partition_colors(o, w, 2, PartitionStrategy::kBlockStatic);
  const auto lpt = partition_colors(o, w, 2, PartitionStrategy::kNnzLpt);
  const auto max_load = [](const ColorPartition& p) {
    index_t m = 0;
    for (index_t l : p.load) m = std::max(m, l);
    return m;
  };
  EXPECT_EQ(max_load(stat), 11);
  EXPECT_EQ(max_load(lpt), 8);
}

TEST(NnzPartition, ImbalanceMetricIsSaneOnRealMatrix) {
  const auto a = test::random_matrix(400, 8.0, true, 71);
  AbmcOptions opts;
  opts.num_blocks = 32;
  const AbmcOrdering o = abmc_order(a, opts);
  const auto split = split_triangular(permute_symmetric(a, o.perm));
  const auto w = block_nnz_weights(o, split.lower.row_ptr(),
                                   split.upper.row_ptr());
  for (const auto strat :
       {PartitionStrategy::kBlockStatic, PartitionStrategy::kNnzLpt}) {
    const auto imb = perf::partition_imbalance(o, w, 4, strat);
    EXPECT_GE(imb.worst, imb.mean);
    EXPECT_GE(imb.mean, 1.0);
  }
}

}  // namespace
}  // namespace fbmpk
