// Unit tests for src/support: RNG, stats, aligned buffers, error macros,
// CRC32.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "support/aligned_buffer.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"

namespace fbmpk {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double(-2.5, 3.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 3.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(SplitMix64, MatchesReferenceSequence) {
  // Reference values from the published SplitMix64 algorithm, seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
}

TEST(Stats, GeometricMeanOfConstant) {
  const std::vector<double> xs{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(geometric_mean(xs), 2.0);
}

TEST(Stats, GeometricMeanKnownValue) {
  const std::vector<double> xs{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geometric_mean(xs), 2.0);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(geometric_mean(xs), Error);
}

TEST(Stats, GeometricMeanRejectsEmpty) {
  EXPECT_THROW(geometric_mean({}), Error);
}

TEST(Stats, MeanAndMin) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, StddevKnownValue) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, RunningStatsAccumulates) {
  RunningStats rs;
  rs.add(1.0);
  rs.add(4.0);
  EXPECT_EQ(rs.count(), 2u);
  EXPECT_DOUBLE_EQ(rs.geomean(), 2.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.5);
}

TEST(AlignedBuffer, VectorIsCacheLineAligned) {
  AlignedVector<double> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
}

TEST(AlignedBuffer, GrowsAndKeepsAlignment) {
  AlignedVector<int> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
}

TEST(Error, CheckThrowsWithExpression) {
  try {
    FBMPK_CHECK(1 == 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckMsgIncludesStreamedMessage) {
  try {
    FBMPK_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Error, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(FBMPK_CHECK(true));
}

TEST(Error, DefaultCodeIsInternal) {
  try {
    FBMPK_CHECK(1 == 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
}

TEST(Error, CheckCodeCarriesCodeAndMessage) {
  try {
    FBMPK_CHECK_CODE(false, ErrorCode::kResourceLimit, "nnz " << 7 << " too big");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceLimit);
    EXPECT_NE(std::string(e.what()).find("nnz 7 too big"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("resource_limit"), std::string::npos);
  }
}

TEST(Error, FailThrowsUnconditionally) {
  try {
    FBMPK_FAIL(ErrorCode::kUnsupported, "no " << "thanks");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
    EXPECT_NE(std::string(e.what()).find("no thanks"), std::string::npos);
  }
}

TEST(Error, CodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
  EXPECT_STREQ(error_code_name(ErrorCode::kCorruptPlan), "corrupt_plan");
  EXPECT_STREQ(error_code_name(ErrorCode::kVersionMismatch),
               "version_mismatch");
  EXPECT_STREQ(error_code_name(ErrorCode::kNumericalBreakdown),
               "numerical_breakdown");
  EXPECT_STREQ(error_code_name(ErrorCode::kTimeout), "timeout");
  EXPECT_STREQ(error_code_name(ErrorCode::kOverloaded), "overloaded");
  EXPECT_STREQ(error_code_name(ErrorCode::kCancelled), "cancelled");
}

TEST(Expected, HoldsValueOrError) {
  Expected<int> good(42);
  ASSERT_TRUE(good);
  EXPECT_EQ(good.value(), 42);

  Expected<int> bad(FBMPK_MAKE_ERROR(ErrorCode::kIo, "disk on fire"));
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.code(), ErrorCode::kIo);
  EXPECT_NE(std::string(bad.error().what()).find("disk on fire"),
            std::string::npos);
  try {
    bad.value();  // promoting back to an exception rethrows the error
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
}

TEST(Expected, StatusOkAndError) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_NO_THROW(ok.value());

  Status bad(FBMPK_MAKE_ERROR(ErrorCode::kParse, "line 3"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kParse);
  EXPECT_THROW(bad.value(), Error);
}

TEST(Threading, MaxThreadsAtLeastOne) { EXPECT_GE(max_threads(), 1); }

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds());  // ms numerically larger
}

/// The byte-at-a-time CRC32 the slicing-by-8 path must reproduce.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int b = 0; b < 8; ++b)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> crc_test_bytes(std::size_t n) {
  std::vector<unsigned char> v(n);
  SplitMix64 rng(7);
  for (auto& b : v) b = static_cast<unsigned char>(rng.next());
  return v;
}

TEST(Checksum, KnownCheckValue) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, std::strlen(s)), 0xCBF43926u);
  EXPECT_EQ(crc32(s, 0), 0u);
}

TEST(Checksum, MatchesByteLoopAtEveryLengthAndOffset) {
  // Lengths 0-64 straddle the 8-byte step and its byte tail; offsets
  // 0-7 put the words at every alignment.
  const auto buf = crc_test_bytes(64 + 8);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 64; ++len)
      EXPECT_EQ(crc32(buf.data() + off, len),
                reference_crc32(buf.data() + off, len))
          << "offset " << off << ", length " << len;
}

TEST(Checksum, SplitUpdatesEqualOneShot) {
  const auto buf = crc_test_bytes(200);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, reference_crc32(buf.data(), buf.size()));
  for (std::size_t a = 0; a <= buf.size(); a += 7)
    for (std::size_t b = a; b <= buf.size(); b += 13) {
      std::uint32_t s = crc32_update(kCrc32Init, buf.data(), a);
      s = crc32_update(s, buf.data() + a, b - a);
      s = crc32_update(s, buf.data() + b, buf.size() - b);
      EXPECT_EQ(crc32_finish(s), whole) << "split at " << a << ", " << b;
    }
}

}  // namespace
}  // namespace fbmpk
