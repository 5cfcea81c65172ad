// Equivalence of the plan-build fast paths with their brute-force
// definitions: the block quotient read straight from CSR patterns (ABMC
// and the sweep schedule) against the row-level graph plus the plain
// quotient rule, and the fused row-parallel permute+split against a
// serial split of the permuted copy. Both must match field for field
// and byte for byte at 1 and 4 threads and when called from inside an
// active parallel region, where the helpers run serially.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "gen/kkt.hpp"
#include "gen/stencil.hpp"
#include "gen/suite.hpp"
#include "reorder/abmc.hpp"
#include "reorder/graph.hpp"
#include "reorder/permutation.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

// ---------------------------------------------------------------------------
// Brute-force references
// ---------------------------------------------------------------------------

/// Quotient of the row graph: blocks adjacent iff a row-graph edge
/// crosses them.
AdjacencyGraph reference_quotient(const AdjacencyGraph& g,
                                  const std::vector<index_t>& block_of,
                                  index_t num_blocks) {
  std::vector<std::vector<index_t>> nbrs(static_cast<std::size_t>(num_blocks));
  for (index_t v = 0; v < g.n; ++v)
    for (index_t k = g.ptr[v]; k < g.ptr[v + 1]; ++k) {
      const index_t bu = block_of[g.adj[k]];
      if (bu != block_of[v]) nbrs[block_of[v]].push_back(bu);
    }
  AdjacencyGraph q;
  q.n = num_blocks;
  q.ptr.push_back(0);
  for (auto& list : nbrs) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    q.adj.insert(q.adj.end(), list.begin(), list.end());
    q.ptr.push_back(static_cast<index_t>(q.adj.size()));
  }
  return q;
}

/// ABMC over the full row graph: blocks laid out color by color, block
/// order kept within a color.
AbmcOrdering reference_abmc(const CsrMatrix<double>& a,
                            const AbmcOptions& opts) {
  const AdjacencyGraph g = adjacency_from_matrix(a);
  const Blocking blocking =
      build_blocking(g, g.n, opts.num_blocks, opts.blocking);
  const Coloring coloring = greedy_color(
      reference_quotient(g, blocking.block_of, blocking.num_blocks),
      opts.coloring);
  AbmcOrdering out;
  out.num_blocks = blocking.num_blocks;
  out.num_colors = coloring.num_colors;
  out.block_ptr.push_back(0);
  out.color_ptr.push_back(0);
  std::vector<index_t> order;
  for (index_t c = 0; c < coloring.num_colors; ++c) {
    for (index_t b = 0; b < blocking.num_blocks; ++b) {
      if (coloring.color_of[b] != c) continue;
      for (index_t k = blocking.block_ptr[b]; k < blocking.block_ptr[b + 1];
           ++k)
        order.push_back(blocking.row_order[k]);
      out.block_ptr.push_back(static_cast<index_t>(order.size()));
    }
    out.color_ptr.push_back(static_cast<index_t>(out.block_ptr.size()) - 1);
  }
  out.perm = Permutation(std::move(order));
  return out;
}

/// Serial scatter split of a matrix.
TriangularSplit<double> reference_split(const CsrMatrix<double>& a) {
  const index_t n = a.rows();
  CooMatrix<double> lo(n, n), up(n, n);
  TriangularSplit<double> s;
  s.diag.assign(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const index_t j = a.col_idx()[k];
      const double v = a.values()[k];
      if (j < i)
        lo.add(i, j, v);
      else if (j > i)
        up.add(i, j, v);
      else
        s.diag[i] = v;
    }
  s.lower = CsrMatrix<double>::from_sorted_coo(lo);
  s.upper = CsrMatrix<double>::from_sorted_coo(up);
  return s;
}

template <class V>
bool same_bytes(const V& x, const V& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
}

void expect_same_csr(const CsrMatrix<double>& x, const CsrMatrix<double>& y,
                     const std::string& what) {
  EXPECT_EQ(x.rows(), y.rows()) << what;
  EXPECT_TRUE(same_bytes(x.row_ptr(), y.row_ptr())) << what;
  EXPECT_TRUE(same_bytes(x.col_idx(), y.col_idx())) << what;
  EXPECT_TRUE(same_bytes(x.values(), y.values())) << what;
}

void expect_same_split(const TriangularSplit<double>& x,
                       const TriangularSplit<double>& y,
                       const std::string& what) {
  expect_same_csr(x.lower, y.lower, what + " L");
  expect_same_csr(x.upper, y.upper, what + " U");
  EXPECT_TRUE(same_bytes(x.diag, y.diag)) << what << " d";
}

// ---------------------------------------------------------------------------
// Thread modes
// ---------------------------------------------------------------------------

enum class Mode { kOneThread, kFourThreads, kInsideRegion };
constexpr Mode kModes[] = {Mode::kOneThread, Mode::kFourThreads,
                           Mode::kInsideRegion};

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOneThread:
      return "1 thread";
    case Mode::kFourThreads:
      return "4 threads";
    case Mode::kInsideRegion:
      return "inside a parallel region";
  }
  return "?";
}

/// Run f() under thread mode m and return its result.
template <class F>
auto run_in(Mode m, F&& f) -> decltype(f()) {
  const int saved = max_threads();
  set_threads(m == Mode::kOneThread ? 1 : 4);
  std::optional<decltype(f())> out;
  if (m == Mode::kInsideRegion) {
    parallel_region_n(2, [&](int t, int) {
      if (t == 0) out.emplace(f());
    });
  } else {
    out.emplace(f());
  }
  set_threads(saved);
  return std::move(*out);
}

// ---------------------------------------------------------------------------
// Cases: the 14 suite analogues plus random and hand-shaped patterns
// ---------------------------------------------------------------------------

/// Unsymmetric pattern with empty rows and rows without a diagonal.
CsrMatrix<double> holey_matrix(index_t n, std::uint64_t seed) {
  test::Xorshift64 rng(seed);
  CooMatrix<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i % 7 == 3) continue;  // empty row
    if (i % 3 != 0) coo.add(i, i, 1.0 + rng.uniform());
    for (int e = 0; e < 3; ++e)
      coo.add(i, static_cast<index_t>(rng.next() % n), rng.uniform() - 0.5);
  }
  return CsrMatrix<double>::from_coo(coo);
}

CsrMatrix<double> case_matrix(const std::string& name) {
  if (name == "rand_sym") return test::random_matrix(230, 7.0, true, 17);
  if (name == "rand_unsym") return test::random_matrix(190, 6.0, false, 29);
  if (name == "laplacian") return gen::make_laplacian_2d(13, 11);
  if (name == "kkt") {
    gen::KktOptions o;
    o.seed = 5;
    return gen::make_kkt_saddle(4, 3, 5, o);
  }
  if (name == "holey") return holey_matrix(120, 3);
  if (name == "one") {
    CooMatrix<double> coo(1, 1);
    coo.add(0, 0, 2.0);
    return CsrMatrix<double>::from_coo(coo);
  }
  if (name == "one_empty")
    return CsrMatrix<double>::from_coo(CooMatrix<double>(1, 1));
  return gen::make_suite_matrix(name, 0.015).matrix;
}

std::vector<std::string> case_names() {
  std::vector<std::string> names = gen::suite_names();
  for (const char* extra : {"rand_sym", "rand_unsym", "laplacian", "kkt",
                            "holey", "one", "one_empty"})
    names.emplace_back(extra);
  return names;
}

class BuildEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(BuildEquivalence, AbmcMatchesRowGraphReference) {
  const CsrMatrix<double> a = case_matrix(GetParam());
  const index_t n = a.rows();
  for (const index_t blocks : {index_t{1}, index_t{7}, index_t{512},
                               index_t{1024}, n + 5})
    for (const BlockingStrategy bs :
         {BlockingStrategy::kContiguous, BlockingStrategy::kBfs})
      for (const ColoringOrder co :
           {ColoringOrder::kNatural, ColoringOrder::kLargestDegreeFirst,
            ColoringOrder::kSmallestLast}) {
        AbmcOptions opts;
        opts.num_blocks = blocks;
        opts.blocking = bs;
        opts.coloring = co;
        const AbmcOrdering want = reference_abmc(a, opts);
        for (const Mode m : kModes) {
          const std::string what =
              "blocks=" + std::to_string(blocks) + " bfs=" +
              std::to_string(bs == BlockingStrategy::kBfs) + " coloring=" +
              std::to_string(static_cast<int>(co)) + " " + mode_name(m);
          const AbmcOrdering got =
              run_in(m, [&] { return abmc_order(a, opts); });
          EXPECT_EQ(got.perm, want.perm) << what;
          EXPECT_EQ(got.block_ptr, want.block_ptr) << what;
          EXPECT_EQ(got.color_ptr, want.color_ptr) << what;
          EXPECT_EQ(got.num_blocks, want.num_blocks) << what;
          EXPECT_EQ(got.num_colors, want.num_colors) << what;
        }
      }
}

TEST_P(BuildEquivalence, QuotientMatchesRowGraphReference) {
  const CsrMatrix<double> a = case_matrix(GetParam());
  const AdjacencyGraph g = adjacency_from_matrix(a);
  const CsrPattern pattern = pattern_of(a);
  for (const index_t blocks : {index_t{1}, index_t{7}, index_t{512}}) {
    const Blocking blocking =
        build_blocking(g, g.n, blocks, BlockingStrategy::kBfs);
    const AdjacencyGraph want =
        reference_quotient(g, blocking.block_of, blocking.num_blocks);
    for (const Mode m : kModes) {
      const AdjacencyGraph got = run_in(m, [&] {
        return block_quotient(pattern, blocking.block_of,
                              blocking.num_blocks);
      });
      got.validate();
      EXPECT_EQ(got.n, want.n) << mode_name(m);
      EXPECT_EQ(got.ptr, want.ptr) << mode_name(m);
      EXPECT_EQ(got.adj, want.adj) << mode_name(m);
    }
  }
}

TEST_P(BuildEquivalence, FusedSplitMatchesPermutedCopy) {
  const CsrMatrix<double> a = case_matrix(GetParam());
  const index_t n = a.rows();

  std::vector<index_t> shuffled(static_cast<std::size_t>(n));
  std::iota(shuffled.begin(), shuffled.end(), 0);
  test::Xorshift64 rng(n);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.next() % i]);
  std::vector<index_t> reversed(shuffled.size());
  std::iota(reversed.rbegin(), reversed.rend(), 0);
  const std::vector<std::pair<const char*, Permutation>> perms = {
      {"identity", Permutation::identity(n)},
      {"abmc", abmc_order(a, AbmcOptions{}).perm},
      {"shuffled", Permutation(shuffled)},
      {"reversed", Permutation(reversed)},
  };
  for (const auto& [label, p] : perms) {
    const TriangularSplit<double> want =
        reference_split(permute_symmetric(a, p));
    for (const Mode m : kModes) {
      const std::string what = std::string(label) + " " + mode_name(m);
      expect_same_split(
          run_in(m, [&] { return split_triangular_permuted(a, p.order()); }),
          want, what);
    }
  }
  const TriangularSplit<double> want = reference_split(a);
  for (const Mode m : kModes)
    expect_same_split(run_in(m, [&] { return split_triangular(a); }), want,
                      std::string("unpermuted ") + mode_name(m));
}

INSTANTIATE_TEST_SUITE_P(Cases, BuildEquivalence,
                         ::testing::ValuesIn(case_names()),
                         [](const auto& tpi) { return tpi.param; });

}  // namespace
}  // namespace fbmpk
