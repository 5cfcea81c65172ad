// Tests for the exact BtB row helpers in kernels/fb_detail.hpp: the
// walk-direction prefetch and the {even, odd} pair load must leave every
// result bit and every traced read as a plain scalar loop has them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/fb_detail.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

// Independent reference: the helpers' accumulation order written as a
// plain scalar loop (four partials per output, remainder into partial
// 0, reduction (a + b) + (c + d)). One statement per multiply-add, as
// in the helpers, so an FMA-contracting build contracts both alike.
template <class T>
void ref_dot2(const index_t* col, const T* val, index_t lo, index_t hi,
              const T* xy, T& s0, T& s1) {
  T a0{}, a1{}, b0{}, b1{}, c0{}, c1{}, d0{}, d1{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    a0 += val[j] * xy[2 * col[j]];
    a1 += val[j] * xy[2 * col[j] + 1];
    b0 += val[j + 1] * xy[2 * col[j + 1]];
    b1 += val[j + 1] * xy[2 * col[j + 1] + 1];
    c0 += val[j + 2] * xy[2 * col[j + 2]];
    c1 += val[j + 2] * xy[2 * col[j + 2] + 1];
    d0 += val[j + 3] * xy[2 * col[j + 3]];
    d1 += val[j + 3] * xy[2 * col[j + 3] + 1];
  }
  for (; j < hi; ++j) {
    a0 += val[j] * xy[2 * col[j]];
    a1 += val[j] * xy[2 * col[j] + 1];
  }
  s0 += (a0 + b0) + (c0 + d0);
  s1 += (a1 + b1) + (c1 + d1);
}

template <class T>
void ref_dot1(const index_t* col, const T* val, index_t lo, index_t hi,
              const T* xy, int offset, T& s) {
  T a{}, b{}, c{}, d{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    a += val[j] * xy[2 * col[j] + offset];
    b += val[j + 1] * xy[2 * col[j + 1] + offset];
    c += val[j + 2] * xy[2 * col[j + 2] + offset];
    d += val[j + 3] * xy[2 * col[j + 3] + offset];
  }
  for (; j < hi; ++j) a += val[j] * xy[2 * col[j] + offset];
  s += (a + b) + (c + d);
}

template <class T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Counts the reads a helper reports to its tracer.
struct CountingTracer {
  std::size_t reads = 0;
  template <class E>
  void read(const E*) {
    ++reads;
  }
  template <class E>
  void write(E*) {}
};

template <Walk W, class T>
void check_rows(const std::vector<index_t>& col, const std::vector<T>& val,
                const std::vector<T>& xy, index_t len) {
  const auto nnz = static_cast<index_t>(col.size());
  // Rows flush with the first and the last entry of the arrays put the
  // prefetch addresses outside the allocation; a middle row does not.
  for (const index_t lo : {index_t{0}, nnz - len, (nnz - len) / 2}) {
    const index_t hi = lo + len;
    SCOPED_TRACE(testing::Message() << "len " << len << " lo " << lo
                                    << " walk " << static_cast<int>(W));
    const T init0 = T(0.25), init1 = T(-1.5);

    T r0 = init0, r1 = init1;
    ref_dot2(col.data(), val.data(), lo, hi, xy.data(), r0, r1);
    T h0 = init0, h1 = init1;
    NullTracer nt;
    detail::row_dot2_btb<W>(col.data(), val.data(), lo, hi, xy.data(), h0,
                            h1, nt);
    EXPECT_TRUE(same_bits(r0, h0)) << r0 << " vs " << h0;
    EXPECT_TRUE(same_bits(r1, h1)) << r1 << " vs " << h1;

    CountingTracer ct;
    T c0 = init0, c1 = init1;
    detail::row_dot2_btb<W>(col.data(), val.data(), lo, hi, xy.data(), c0,
                            c1, ct);
    EXPECT_EQ(ct.reads, 4 * static_cast<std::size_t>(len));
    EXPECT_TRUE(same_bits(r0, c0) && same_bits(r1, c1));

    for (const int offset : {0, 1}) {
      T r = init1;
      ref_dot1(col.data(), val.data(), lo, hi, xy.data(), offset, r);
      T h = init1;
      detail::row_dot1_btb<W>(col.data(), val.data(), lo, hi, xy.data(),
                              offset, h, nt);
      EXPECT_TRUE(same_bits(r, h)) << "offset " << offset << ": " << r
                                   << " vs " << h;
      CountingTracer ct1;
      T c = init1;
      detail::row_dot1_btb<W>(col.data(), val.data(), lo, hi, xy.data(),
                              offset, c, ct1);
      EXPECT_EQ(ct1.reads, 3 * static_cast<std::size_t>(len));
    }
  }
}

template <class T>
void check_all_lengths(std::uint64_t seed) {
  test::Xorshift64 rng(seed);
  constexpr index_t kCols = 97;
  constexpr index_t kNnz = 80;
  // Exactly sized arrays, so out-of-range prefetches are detectable as
  // accesses by the sanitizer builds if a helper ever dereferenced one.
  std::vector<index_t> col(kNnz);
  std::vector<T> val(kNnz);
  std::vector<T> xy(2 * kCols);
  for (auto& c : col) c = static_cast<index_t>(rng.in_range(0, kCols - 1));
  for (auto& v : val) v = static_cast<T>(rng.uniform() * 2.0 - 1.0);
  for (auto& x : xy) x = static_cast<T>(rng.uniform() * 4.0 - 2.0);
  for (index_t len = 0; len <= 64; ++len) {
    check_rows<Walk::kUp>(col, val, xy, len);
    check_rows<Walk::kDown>(col, val, xy, len);
  }
}

TEST(FbDetail, PairPrefetchHelpersMatchScalarReference) {
  check_all_lengths<double>(11);
  check_all_lengths<double>(12);
#ifndef __FMA__
  // Where FMA is available, GCC contracts the float reference loop
  // differently from the helpers: even row_dot1_btb, whose arithmetic
  // is the plain scalar form, then disagrees with it in the last bits.
  check_all_lengths<float>(13);
  check_all_lengths<float>(14);
#endif
}

}  // namespace
}  // namespace fbmpk
