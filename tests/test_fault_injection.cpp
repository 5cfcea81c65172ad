// Fault-injection suite: proves the ingestion layer rejects every
// corruption of its two persistent input formats — plan blobs and
// Matrix Market text — with a typed fbmpk::Error. No crash, no hang,
// no silent acceptance (acceptance criteria of the hardened plan
// format: the CRC32 makes every single-byte flip detectable).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "gen/stencil.hpp"
#include "sparse/mm_io.hpp"
#include "support/fault_inject.hpp"

namespace fbmpk {
namespace {

std::string valid_plan_blob() {
  const auto a = gen::make_laplacian_2d(6, 6);
  auto plan = MpkPlan::build(a);
  std::ostringstream buf;
  save_plan(plan, buf);
  return buf.str();
}

/// A v5 blob whose VALP section carries real reduced-precision streams
/// (and PCKD a real sidecar) — the corpus for the mixed-precision
/// corruption sweeps.
std::string valid_plan_blob_mixed(ValuePrecision p) {
  const auto a = gen::make_laplacian_2d(6, 6);
  PlanOptions o;
  o.index_compress = true;
  o.value_precision = p;
  auto plan = MpkPlan::build(a, o);
  std::ostringstream buf;
  save_plan(plan, buf);
  return buf.str();
}

// Every corruption must surface as one of the ingestion error codes —
// never kInternal (that would mean a validation hole reached deep
// library invariants) and never a crash. kResourceLimit is in the set
// because a flipped payload-length byte can claim a size that is
// structurally plausible yet over the configured payload cap
// (set_plan_payload_cap): that guard fires before any allocation, so
// the corruption is still rejected typed instead of driving the
// process toward bad_alloc.
bool is_ingestion_code(ErrorCode c) {
  return c == ErrorCode::kCorruptPlan || c == ErrorCode::kVersionMismatch ||
         c == ErrorCode::kResourceLimit;
}

TEST(FaultInjection, EverySingleByteFlipIsRejected) {
  const std::string blob = valid_plan_blob();
  ASSERT_GT(blob.size(), 100u);

  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    const std::string mutated = flip_byte(blob, pos, 0xFF);
    std::istringstream in(mutated);
    try {
      auto plan = load_plan(in);
      FAIL() << "byte flip at " << pos << " of " << blob.size()
             << " was silently accepted";
    } catch (const Error& e) {
      EXPECT_TRUE(is_ingestion_code(e.code()))
          << "byte flip at " << pos << " raised '" << e.what()
          << "' with code " << error_code_name(e.code());
    }
    // No other exception type may escape (ASSERT via gtest's default
    // unexpected-exception handling -> test failure).
  }
}

// Same exhaustive sweep over a blob whose VALP section holds fp32
// streams: every flipped byte — header, options, value sidecar, tuned
// config — must surface as an ingestion error.
TEST(FaultInjection, EveryByteFlipInMixedPrecisionPlanIsRejected) {
  const ValuePrecision p = ValuePrecision::kFp32;
  const std::string blob = valid_plan_blob_mixed(p);
  ASSERT_GT(blob.size(), 100u);
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    const std::string mutated = flip_byte(blob, pos, 0xFF);
    std::istringstream in(mutated);
    try {
      auto plan = load_plan(in);
      FAIL() << precision_name(p) << ": byte flip at " << pos << " of "
             << blob.size() << " was silently accepted";
    } catch (const Error& e) {
      EXPECT_TRUE(is_ingestion_code(e.code()))
          << precision_name(p) << ": byte flip at " << pos << " raised '"
          << e.what() << "' with code " << error_code_name(e.code());
    }
  }
}

TEST(FaultInjection, EveryTruncationOfMixedPrecisionPlanIsRejected) {
  const ValuePrecision p = ValuePrecision::kFp32;
  const std::string blob = valid_plan_blob_mixed(p);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    ShortReadStream in(blob, len);
    try {
      auto plan = load_plan(in);
      FAIL() << precision_name(p) << ": truncation to " << len << " of "
             << blob.size() << " bytes was silently accepted";
    } catch (const Error& e) {
      EXPECT_TRUE(is_ingestion_code(e.code()))
          << precision_name(p) << ": truncation to " << len
          << " raised code " << error_code_name(e.code());
    }
  }
}

TEST(FaultInjection, MixedPrecisionRoundTripStillWorks) {
  const ValuePrecision p = ValuePrecision::kFp32;
  const std::string blob = valid_plan_blob_mixed(p);
  std::istringstream in(blob);
  auto plan = load_plan(in);
  EXPECT_EQ(plan.rows(), 36);
  EXPECT_EQ(plan.options().value_precision, p);
  EXPECT_GT(plan.stats().packed_value_bytes, 0u);
}

TEST(FaultInjection, EverySingleBitFlipInHeaderIsRejected) {
  const std::string blob = valid_plan_blob();
  // The 24-byte header + the first payload bytes, one bit at a time —
  // the least-significant-bit flips are the ones a coarse mask could
  // mask out.
  const std::size_t limit = std::min<std::size_t>(blob.size(), 128);
  for (std::size_t pos = 0; pos < limit; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      const std::string mutated =
          flip_byte(blob, pos, static_cast<std::uint8_t>(1u << bit));
      std::istringstream in(mutated);
      EXPECT_THROW(load_plan(in), Error)
          << "bit " << bit << " at byte " << pos;
    }
  }
}

TEST(FaultInjection, EveryTruncationIsRejected) {
  const std::string blob = valid_plan_blob();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    ShortReadStream in(blob, len);
    try {
      auto plan = load_plan(in);
      FAIL() << "truncation to " << len << " of " << blob.size()
             << " bytes was silently accepted";
    } catch (const Error& e) {
      EXPECT_TRUE(is_ingestion_code(e.code()))
          << "truncation to " << len << " raised code "
          << error_code_name(e.code());
    }
  }
}

TEST(FaultInjection, HardReadFaultSurfacesAsError) {
  const std::string blob = valid_plan_blob();
  for (std::size_t len : {std::size_t{0}, std::size_t{8}, std::size_t{24},
                          blob.size() / 2, blob.size() - 1}) {
    FailingStream in(blob, len);
    EXPECT_THROW(load_plan(in), Error) << "fault after " << len << " bytes";
  }
}

TEST(FaultInjection, V1StreamRejectedWithVersionError) {
  // A v1 stream: same magic, version word 1, then arbitrary payload
  // bytes laid out per the old raw-POD format.
  std::string v1("FBMPKPLN", 8);
  const std::uint32_t version = 1, width = 4;
  v1.append(reinterpret_cast<const char*>(&version), 4);
  v1.append(reinterpret_cast<const char*>(&width), 4);
  v1.append(64, '\x01');
  std::istringstream in(v1);
  try {
    load_plan(in);
    FAIL() << "v1 stream accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kVersionMismatch);
  }
}

TEST(FaultInjection, EveryVersionWordBitFlipIsVersionMismatch) {
  // The loader reads exactly one format version, so any flipped bit in
  // the header's version word (bytes 8..11) must fail as
  // kVersionMismatch — not as a checksum or framing error further in.
  const std::string blob = valid_plan_blob();
  for (std::size_t pos = 8; pos < 12; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      const std::string mutated =
          flip_byte(blob, pos, static_cast<std::uint8_t>(1u << bit));
      std::istringstream in(mutated);
      try {
        load_plan(in);
        FAIL() << "bit " << bit << " at byte " << pos << " accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kVersionMismatch)
            << "bit " << bit << " at byte " << pos << ": " << e.what();
      }
    }
  }
}

TEST(FaultInjection, ForeignIndexWidthRejected) {
  std::string blob = valid_plan_blob();
  const std::uint32_t width64 = 8;
  blob.replace(12, 4, reinterpret_cast<const char*>(&width64), 4);
  std::istringstream in(blob);
  try {
    load_plan(in);
    FAIL() << "foreign index width accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kVersionMismatch);
  }
}

TEST(FaultInjection, RoundTripStillWorksAfterHardening) {
  const std::string blob = valid_plan_blob();
  std::istringstream in(blob);
  auto plan = load_plan(in);
  EXPECT_EQ(plan.rows(), 36);
}

// ---------------------------------------------------------------------------
// Malformed Matrix Market corpus: every case must raise a typed Error,
// and the code must match the defect class.
// ---------------------------------------------------------------------------

struct MtxCase {
  const char* name;
  const char* text;
  ErrorCode expected;
};

TEST(FaultInjection, MalformedMatrixMarketCorpus) {
  const std::vector<MtxCase> corpus = {
      {"empty stream", "", ErrorCode::kParse},
      {"no banner", "3 3 1\n1 1 1.0\n", ErrorCode::kParse},
      {"bad object", "%%MatrixMarket graph coordinate real general\n1 1 0\n",
       ErrorCode::kUnsupported},
      {"array format", "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
       ErrorCode::kUnsupported},
      {"complex field",
       "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
       ErrorCode::kUnsupported},
      {"hermitian symmetry",
       "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
       ErrorCode::kUnsupported},
      {"bad symmetry word",
       "%%MatrixMarket matrix coordinate real diagonal\n1 1 1\n1 1 1.0\n",
       ErrorCode::kUnsupported},
      {"missing size line", "%%MatrixMarket matrix coordinate real general\n",
       ErrorCode::kParse},
      {"garbage size line",
       "%%MatrixMarket matrix coordinate real general\nfoo bar baz\n",
       ErrorCode::kParse},
      {"negative rows",
       "%%MatrixMarket matrix coordinate real general\n-3 3 1\n1 1 1.0\n",
       ErrorCode::kParse},
      {"negative nnz",
       "%%MatrixMarket matrix coordinate real general\n3 3 -1\n",
       ErrorCode::kParse},
      {"rows overflow index_t",
       "%%MatrixMarket matrix coordinate real general\n4294967296 2 0\n",
       ErrorCode::kResourceLimit},
      {"nnz overflow via symmetric doubling",
       "%%MatrixMarket matrix coordinate real symmetric\n"
       "2000000000 2000000000 2000000000\n",
       ErrorCode::kResourceLimit},
      {"truncated entries",
       "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 2.0\n",
       ErrorCode::kParse},
      {"malformed entry line",
       "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",
       ErrorCode::kParse},
      {"row index out of range",
       "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 2.0\n",
       ErrorCode::kInvalidMatrix},
      {"col index zero (one-based format)",
       "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 2.0\n",
       ErrorCode::kInvalidMatrix},
      {"skew-symmetric nonzero diagonal",
       "%%MatrixMarket matrix coordinate real skew-symmetric\n"
       "2 2 1\n1 1 3.0\n",
       ErrorCode::kInvalidMatrix},
      {"skew-symmetric pattern",
       "%%MatrixMarket matrix coordinate pattern skew-symmetric\n"
       "2 2 1\n2 1\n",
       ErrorCode::kParse},
  };

  for (const auto& c : corpus) {
    std::istringstream in(c.text);
    try {
      read_matrix_market(in);
      FAIL() << "corpus case '" << c.name << "' was silently accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), c.expected)
          << "case '" << c.name << "' raised '" << e.what() << "'";
    }
  }
}

TEST(FaultInjection, MatrixMarketShortRead) {
  const std::string good =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 2 2.0\n"
      "3 3 2.0\n";
  // Truncating mid-banner yields kParse (broken tag) or kUnsupported
  // (a keyword cut to an unknown word); truncating in the size/entry
  // lines yields kParse. The loop stops before the final entry's value
  // token: a text format cannot distinguish "3 3 2" truncated from
  // "3 3 2" intended, so only the last few bytes are inherently
  // undetectable — everything before them must be rejected.
  const std::size_t detectable = good.size() - 3;  // before "2.0\n" of entry 3
  for (std::size_t len = 0; len < detectable; ++len) {
    ShortReadStream in(good, len);
    try {
      read_matrix_market(in);
      FAIL() << "truncation to " << len << " accepted";
    } catch (const Error& e) {
      EXPECT_TRUE(e.code() == ErrorCode::kParse ||
                  e.code() == ErrorCode::kUnsupported)
          << "at length " << len << ": " << e.what();
    }
  }
}


// ---------------------------------------------------------------------------
// Length-field attacks: a corrupt size must fail typed BEFORE any
// allocation sized by it (the serving layer loads untrusted cache
// artifacts on the hot path — a bad length must never OOM the
// process).
// ---------------------------------------------------------------------------

/// Patch a little-endian u64 at `off` and leave everything else —
/// including the payload CRC, which does not cover the header — alone.
std::string patch_u64(std::string blob, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    blob[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  return blob;
}

/// Header layout: magic(8) version(u32) index_width(u32)
/// payload_size(u64 at 16) crc32(u32 at 24); payload starts at 28.
constexpr std::size_t kPayloadSizeOffset = 16;

TEST(FaultInjection, HugeClaimedPayloadFailsTypedBeforeAllocating) {
  const std::string blob = valid_plan_blob();
  // 512 GiB: structurally plausible (under the 1 TiB sanity bound) but
  // over the default 64 GiB payload cap — the cap must fire, typed,
  // before the loader tries to buffer it.
  const std::string huge =
      patch_u64(blob, kPayloadSizeOffset, 1ull << 39);
  std::istringstream in(huge);
  try {
    auto plan = load_plan(in);
    FAIL() << "512 GiB claimed payload was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceLimit);
  }
}

TEST(FaultInjection, PayloadCapIsConfigurable) {
  const std::string blob = valid_plan_blob();
  const std::uint64_t restore = plan_payload_cap();
  set_plan_payload_cap(16);  // far below any real plan
  std::istringstream in(blob);
  Expected<MpkPlan> r = try_load_plan(in);
  set_plan_payload_cap(restore);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.code(), ErrorCode::kResourceLimit);

  // With the cap restored the same bytes load fine.
  std::istringstream in2(blob);
  EXPECT_TRUE(try_load_plan(in2).has_value());
}

TEST(FaultInjection, FileSizeDisagreementIsRejectedBeforePayloadRead) {
  const auto a = gen::make_laplacian_2d(6, 6);
  auto plan = MpkPlan::build(a);
  const std::string path =
      ::testing::TempDir() + "/fbmpk_trailing_bytes.plan";
  save_plan_file(plan, path);
  {
    std::ofstream app(path, std::ios::binary | std::ios::app);
    app << "junk!";  // header now disagrees with the file size
  }
  Expected<MpkPlan> r = try_load_plan_file(path);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.code(), ErrorCode::kCorruptPlan);
  std::remove(path.c_str());
}

TEST(FaultInjection, SectionLengthFieldAttackFailsTyped) {
  // First framed section: tag(u32) at 28, length(u64) at 32. An
  // inflated section length must die on a bounds check or the CRC —
  // never reach an allocation of that size.
  const std::string blob = valid_plan_blob();
  for (const std::uint64_t claim :
       {std::uint64_t{1} << 62, std::uint64_t{0xFFFFFFFFFFFFFFFF},
        std::uint64_t{1} << 35}) {
    const std::string bad = patch_u64(blob, 32, claim);
    std::istringstream in(bad);
    try {
      auto plan = load_plan(in);
      FAIL() << "inflated section length " << claim << " was accepted";
    } catch (const Error& e) {
      EXPECT_TRUE(is_ingestion_code(e.code()))
          << "section length " << claim << " raised '" << e.what()
          << "' with code " << error_code_name(e.code());
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime fault injector (fault::Injector): the switchboard the
// serving-layer soak flips. Semantics must be exact — tests arm
// specific fire/skip budgets and assert ladder transitions off them.
// ---------------------------------------------------------------------------

TEST(FaultInjection, RuntimeInjectorFireAndSkipBudgets) {
  auto& inj = fault::Injector::instance();
  inj.reset();
  EXPECT_FALSE(fault::should_fire(fault::Point::kAlloc));

  inj.arm(fault::Point::kAlloc, /*fires=*/2, /*skip=*/1);
  EXPECT_FALSE(fault::should_fire(fault::Point::kAlloc));  // skipped
  EXPECT_TRUE(fault::should_fire(fault::Point::kAlloc));
  EXPECT_TRUE(fault::should_fire(fault::Point::kAlloc));
  EXPECT_FALSE(fault::should_fire(fault::Point::kAlloc));  // exhausted
  EXPECT_EQ(inj.fired(fault::Point::kAlloc), 2);

  // Points are independent.
  inj.arm(fault::Point::kQueueFull, /*fires=*/1);
  EXPECT_FALSE(fault::should_fire(fault::Point::kAlloc));
  EXPECT_TRUE(fault::should_fire(fault::Point::kQueueFull));

  inj.reset();
  EXPECT_FALSE(fault::should_fire(fault::Point::kQueueFull));
  EXPECT_EQ(inj.fired(fault::Point::kQueueFull), 0);
}

TEST(FaultInjection, RuntimeInjectorStallBlocksForArmedDuration) {
  auto& inj = fault::Injector::instance();
  inj.reset();
  inj.arm(fault::Point::kSweepStall, /*fires=*/1, /*skip=*/0,
          /*stall_ms=*/50);
  const auto t0 = std::chrono::steady_clock::now();
  fault::maybe_stall(fault::Point::kSweepStall);  // fires: sleeps
  fault::maybe_stall(fault::Point::kSweepStall);  // exhausted: no-op
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(ms, 45.0);
  EXPECT_LT(ms, 500.0);
  inj.reset();
}

}  // namespace
}  // namespace fbmpk
