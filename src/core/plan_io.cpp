#include "core/plan_io.hpp"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>

#include "support/checksum.hpp"
#include "support/error.hpp"

namespace fbmpk {

namespace {

// ---------------------------------------------------------------------------
// Format v10 (see docs/ROBUSTNESS.md):
//
//   [ magic "FBMPKPLN" | u32 version | u32 index_width |
//     u64 payload_size | u32 payload_crc32 ]  -- fixed header
//   [ payload: framed sections ]
//
// The payload is a sequence of sections, each
//   [ u32 tag | u64 length | length bytes ],
// and the CRC32 covers every payload byte. Deserialization never
// trusts a byte it has not bounds-checked: section lengths are checked
// against the remaining payload, vector sizes against the remaining
// section, and every enum/bool against its legal range. Any violation
// throws a typed fbmpk::Error (kCorruptPlan / kVersionMismatch) —
// a truncated or bit-flipped plan file can never reach undefined
// behavior or silently load.
//
// A plan file is a cache of a build, not an archive: this build reads
// exactly one version, and any other is kVersionMismatch (regenerate
// with `fbmpk_cli plan`). Beyond the CRC, a loaded plan is re-checked
// against its own split: the level-blocked schedule is structurally
// re-validated, the packed column sidecar is decode-compared, and the
// value sidecars are re-encoded from the split's fp64 values and
// compared bitwise (any mismatch -> kCorruptPlan). A schedule built
// for a different thread count than the runtime's is rebuilt from the
// split, and a loaded tuned config is revalidated against the
// executing machine (tuned_config_stale) rather than trusted.
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'F', 'B', 'M', 'P', 'K', 'P', 'L', 'N'};
constexpr std::uint32_t kVersion = 10;

// Section tags, in the order they are written.
enum : std::uint32_t {
  kSecOptions = 0x4F505453,   // 'OPTS'
  kSecStats = 0x53544154,     // 'STAT'
  kSecPerm = 0x5045524D,      // 'PERM'
  kSecSchedule = 0x53434844,  // 'SCHD'
  kSecLevels = 0x4C564C53,    // 'LVLS'
  kSecSplit = 0x53504C54,     // 'SPLT'
  kSecPacked = 0x50434B44,    // 'PCKD'
  kSecValues = 0x56414C50,    // 'VALP'
  kSecTuned = 0x54554E45,     // 'TUNE'
};

// Serialized payloads are bounded: a section or vector claiming more
// than this is corrupt by definition.
constexpr std::uint64_t kMaxPlausibleBytes = 1ull << 40;

// Runtime-configurable cap below the structural bound (default 64 GiB).
// Checked before the payload buffer is committed, so a hostile length
// field can cost at most the cap, never an OOM.
std::atomic<std::uint64_t> g_payload_cap{1ull << 36};

/// Fixed header: magic + u32 version + u32 index_width +
/// u64 payload_size + u32 crc32.
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;

// --------------------------- writing ---------------------------------------

/// Accumulates the payload in memory so the CRC and total length are
/// known before anything hits the output stream.
class BlobWriter {
 public:
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }

  void boolean(bool b) { pod<std::uint8_t>(b ? 1 : 0); }

  template <class E>
  void enumeration(E e) {
    pod<std::uint32_t>(static_cast<std::uint32_t>(e));
  }

  template <class Vec>
  void vec(const Vec& v) {
    pod<std::uint64_t>(v.size());
    if (!v.empty())
      append(v.data(), v.size() * sizeof(typename Vec::value_type));
  }

  /// Begin a framed section; returns after patching the previous one.
  void begin_section(std::uint32_t tag) {
    end_section();
    pod<std::uint32_t>(tag);
    length_pos_ = buf_.size();
    pod<std::uint64_t>(0);  // patched by end_section
  }

  void end_section() {
    if (length_pos_ == std::string::npos) return;
    const std::uint64_t len = buf_.size() - length_pos_ - sizeof(std::uint64_t);
    std::memcpy(buf_.data() + length_pos_, &len, sizeof(len));
    length_pos_ = std::string::npos;
  }

  const std::string& blob() {
    end_section();
    return buf_;
  }

 private:
  void append(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  std::string buf_;
  std::size_t length_pos_ = std::string::npos;
};

// --------------------------- reading ---------------------------------------

/// Bounds-checked cursor over the in-memory, checksum-verified payload.
class BlobReader {
 public:
  BlobReader(const char* data, std::size_t size) : data_(data), end_(size) {}

  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v{};
    std::memcpy(&v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }

  bool boolean() {
    const auto b = pod<std::uint8_t>();
    FBMPK_CHECK_CODE(b <= 1, ErrorCode::kCorruptPlan,
                     "bool byte out of range: " << static_cast<int>(b));
    return b == 1;
  }

  /// Read an enum stored as u32 and range-check it against [0, count).
  template <class E>
  E enumeration(std::uint32_t count, const char* name) {
    const auto raw = pod<std::uint32_t>();
    FBMPK_CHECK_CODE(raw < count, ErrorCode::kCorruptPlan,
                     name << " enum value out of range: " << raw);
    return static_cast<E>(raw);
  }

  template <class Vec>
  Vec vec() {
    const auto size = pod<std::uint64_t>();
    using V = typename Vec::value_type;
    FBMPK_CHECK_CODE(size < kMaxPlausibleBytes / sizeof(V),
                     ErrorCode::kCorruptPlan,
                     "implausible vector size in plan: " << size);
    require(size * sizeof(V));
    Vec v(static_cast<std::size_t>(size));
    if (size > 0) {
      std::memcpy(v.data(), data_ + off_,
                  static_cast<std::size_t>(size) * sizeof(V));
      off_ += static_cast<std::size_t>(size) * sizeof(V);
    }
    return v;
  }

  /// Enter the next section; it must carry `tag` and fit the payload.
  /// Returns the section's end offset for end_section().
  std::size_t begin_section(std::uint32_t tag, const char* name) {
    const auto found = pod<std::uint32_t>();
    FBMPK_CHECK_CODE(found == tag, ErrorCode::kCorruptPlan,
                     "expected section " << name << ", found tag 0x"
                                         << std::hex << found);
    const auto len = pod<std::uint64_t>();
    require(len);
    return off_ + static_cast<std::size_t>(len);
  }

  /// Verify the cursor landed exactly on the section boundary.
  void end_section(std::size_t section_end, const char* name) {
    FBMPK_CHECK_CODE(off_ == section_end, ErrorCode::kCorruptPlan,
                     "section " << name << " length mismatch: cursor at "
                                << off_ << ", frame ends at " << section_end);
  }

  void expect_exhausted() {
    FBMPK_CHECK_CODE(off_ == end_, ErrorCode::kCorruptPlan,
                     "trailing bytes after final section");
  }

 private:
  void require(std::uint64_t n) {
    FBMPK_CHECK_CODE(n <= end_ - off_, ErrorCode::kCorruptPlan,
                     "plan payload overrun: need " << n << " bytes, have "
                                                   << (end_ - off_));
  }

  const char* data_;
  std::size_t end_;
  std::size_t off_ = 0;
};

// --------------------------- matrices --------------------------------------

void write_csr(BlobWriter& w, const CsrMatrix<double>& m) {
  w.pod(m.rows());
  w.pod(m.cols());
  w.vec(AlignedVector<index_t>(m.row_ptr().begin(), m.row_ptr().end()));
  w.vec(AlignedVector<index_t>(m.col_idx().begin(), m.col_idx().end()));
  w.vec(AlignedVector<double>(m.values().begin(), m.values().end()));
}

/// A CSR payload; with a non-empty `base_of` a renumbered `tri`
/// triangle (level-scheduled plans), validated in its base numbering.
CsrMatrix<double> read_csr(BlobReader& r,
                           std::span<const index_t> base_of = {},
                           Triangle tri = Triangle::kLower) {
  const auto rows = r.pod<index_t>();
  const auto cols = r.pod<index_t>();
  auto rp = r.vec<AlignedVector<index_t>>();
  auto ci = r.vec<AlignedVector<index_t>>();
  auto va = r.vec<AlignedVector<double>>();
  // The CSR constructors re-validate the structure; surface their
  // verdict as plan corruption rather than an internal error.
  try {
    if (!base_of.empty()) {
      FBMPK_CHECK_CODE(rows == cols, ErrorCode::kInvalidMatrix,
                       "renumbered triangle is not square");
      return CsrMatrix<double>(tri, base_of, rows, std::move(rp),
                               std::move(ci), std::move(va));
    }
    return CsrMatrix<double>(rows, cols, std::move(rp), std::move(ci),
                             std::move(va));
  } catch (const Error& e) {
    throw Error(ErrorCode::kCorruptPlan,
                std::string("corrupt CSR payload in plan: ") + e.what());
  }
}

void write_level_direction(BlobWriter& w, const LevelBlockDirection& d) {
  w.pod(d.num_stages);
  w.vec(d.stage_level_ptr);
  w.vec(d.part_ptr);
  w.vec(d.part_rows);
  w.vec(d.load);
}

LevelBlockDirection read_level_direction(BlobReader& r) {
  LevelBlockDirection d;
  d.num_stages = r.pod<index_t>();
  FBMPK_CHECK_CODE(d.num_stages >= 0, ErrorCode::kCorruptPlan,
                   "negative level stage count in plan");
  d.stage_level_ptr = r.vec<std::vector<index_t>>();
  d.part_ptr = r.vec<std::vector<index_t>>();
  d.part_rows = r.vec<std::vector<index_t>>();
  d.load = r.vec<std::vector<index_t>>();
  return d;
}

void write_packed(BlobWriter& w, const PackedTriangleIndex& p) {
  const PackedTriangleIndex::Raw raw = p.to_raw();
  w.pod(raw.rows);
  w.pod(raw.nnz);
  w.pod(raw.band_shift);
  w.vec(raw.band_base);
  w.vec(raw.band_wide);
  w.vec(raw.band_off);
  w.vec(raw.band_gbase);
  w.vec(raw.col16);
  w.vec(raw.col32);
}

void write_values(BlobWriter& w, const PackedTriangleValues& p) {
  const PackedTriangleValues::Raw raw = p.to_raw();
  w.pod(raw.precision);
  w.pod(raw.lossless);
  w.pod(raw.count);
  w.vec(raw.f32);
}

PackedTriangleValues read_values(BlobReader& r, const char* name) {
  PackedTriangleValues::Raw raw;
  raw.precision = r.pod<std::uint8_t>();
  raw.lossless = r.pod<std::uint8_t>();
  raw.count = r.pod<std::uint64_t>();
  raw.f32 = r.vec<AlignedVector<float>>();
  PackedTriangleValues out;
  FBMPK_CHECK_CODE(PackedTriangleValues::from_raw(std::move(raw), out),
                   ErrorCode::kCorruptPlan,
                   name << " value sidecar fails structural validation");
  return out;
}

PackedTriangleIndex read_packed(BlobReader& r, const char* name) {
  PackedTriangleIndex::Raw raw;
  raw.rows = r.pod<index_t>();
  raw.nnz = r.pod<index_t>();
  raw.band_shift = r.pod<index_t>();
  raw.band_base = r.vec<AlignedVector<index_t>>();
  raw.band_wide = r.vec<AlignedVector<std::uint8_t>>();
  raw.band_off = r.vec<AlignedVector<std::uint64_t>>();
  raw.band_gbase = r.vec<AlignedVector<index_t>>();
  raw.col16 = r.vec<AlignedVector<std::uint16_t>>();
  raw.col32 = r.vec<AlignedVector<index_t>>();
  PackedTriangleIndex out;
  FBMPK_CHECK_CODE(PackedTriangleIndex::from_raw(std::move(raw), out),
                   ErrorCode::kCorruptPlan,
                   name << " packed index fails structural validation");
  return out;
}

// Monotone non-negative pointer array ending exactly at `total`.
void check_ptr_array(const std::vector<index_t>& ptr, index_t total,
                     const char* name) {
  if (ptr.empty()) return;
  FBMPK_CHECK_CODE(ptr.front() == 0 && ptr.back() == total,
                   ErrorCode::kCorruptPlan,
                   name << " endpoints invalid in plan");
  for (std::size_t i = 1; i < ptr.size(); ++i)
    FBMPK_CHECK_CODE(ptr[i - 1] <= ptr[i], ErrorCode::kCorruptPlan,
                     name << " not monotone in plan");
}

}  // namespace

void save_plan(const MpkPlan& plan, std::ostream& out) {
  BlobWriter w;

  w.begin_section(kSecOptions);
  w.pod(plan.n_);
  const PlanOptions& o = plan.opts_;
  w.boolean(o.reorder);
  w.pod(o.abmc.num_blocks);
  w.enumeration(o.abmc.blocking);
  w.enumeration(o.abmc.coloring);
  w.boolean(o.parallel);
  w.enumeration(o.scheduler);
  w.enumeration(o.variant);
  w.enumeration(o.sweep.sync);
  w.pod(o.sweep.threads);
  w.boolean(o.sweep.pin_threads);
  w.boolean(o.validate_input);
  w.enumeration(o.sanitize.policy);
  w.boolean(o.sanitize.check_finite);
  w.boolean(o.sanitize.check_duplicates);
  w.boolean(o.sanitize.check_explicit_zeros);
  w.boolean(o.sanitize.check_diagonal);
  w.pod(o.sanitize.zero_diag_tolerance);
  w.pod(o.sanitize.patched_diagonal);
  w.enumeration(o.kernel_backend);
  w.boolean(o.index_compress);
  w.pod(static_cast<std::int32_t>(o.prefetch_dist));
  w.enumeration(o.value_precision);
  w.boolean(o.autotune_oracle);

  w.begin_section(kSecStats);
  w.pod(plan.stats_);

  w.begin_section(kSecPerm);
  w.vec(std::vector<index_t>(plan.perm_.order().begin(),
                             plan.perm_.order().end()));

  w.begin_section(kSecSchedule);
  w.pod(plan.schedule_.num_blocks);
  w.pod(plan.schedule_.num_colors);
  w.vec(plan.schedule_.block_ptr);
  w.vec(plan.schedule_.color_ptr);

  // The level-blocked stage schedule (empty for ABMC and serial plans).
  w.begin_section(kSecLevels);
  const LevelSweepSchedule& ls = plan.level_sweep_schedule_;
  w.pod(ls.num_threads);
  write_level_direction(w, ls.fwd);
  write_level_direction(w, ls.bwd);
  w.vec(ls.fwd_dep_ptr);
  w.vec(ls.fwd_deps);
  w.vec(ls.bwd_dep_ptr);
  w.vec(ls.bwd_deps);
  w.vec(ls.bwd_fdep_ptr);
  w.vec(ls.bwd_fdeps);

  w.begin_section(kSecSplit);
  write_csr(w, plan.split_.lower);
  write_csr(w, plan.split_.upper);
  w.vec(plan.split_.diag);

  w.begin_section(kSecPacked);
  write_packed(w, plan.packed_.lower);
  write_packed(w, plan.packed_.upper);

  w.begin_section(kSecValues);
  w.enumeration(plan.values_.precision);
  write_values(w, plan.values_.lower);
  write_values(w, plan.values_.upper);
  write_values(w, plan.values_.diag);

  // The tuned config travels with the plan so a reload does not repeat
  // the autotune sweep; `stale` is recomputed on load, never stored.
  w.begin_section(kSecTuned);
  const TunedConfig& t = plan.tuned_;
  w.boolean(t.valid);
  w.enumeration(t.backend);
  w.boolean(t.index_compress);
  w.enumeration(t.value_precision);
  w.pod(t.tuned_threads);
  w.pod(t.best_seconds);
  w.boolean(t.oracle_used);
  w.pod(t.oracle_predicted_bytes);
  w.pod(t.candidates_scored);
  w.pod(t.candidates_timed);
  w.pod(t.oracle_rank_of_winner);
  w.enumeration(t.scheduler);
  w.boolean(t.scheduler_measured);
  w.pod(t.scheduler_alt_seconds);

  const std::string& payload = w.blob();
  const auto payload_crc = crc32(payload.data(), payload.size());

  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  const std::uint32_t index_width = sizeof(index_t);
  const std::uint64_t payload_size = payload.size();
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&index_width), sizeof(index_width));
  out.write(reinterpret_cast<const char*>(&payload_size),
            sizeof(payload_size));
  out.write(reinterpret_cast<const char*>(&payload_crc), sizeof(payload_crc));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  FBMPK_CHECK_CODE(out.good(), ErrorCode::kIo, "plan write failed");
}

void set_plan_payload_cap(std::uint64_t bytes) {
  g_payload_cap.store(bytes, std::memory_order_relaxed);
}

std::uint64_t plan_payload_cap() {
  return g_payload_cap.load(std::memory_order_relaxed);
}

namespace detail {

/// `total_size` is the byte count of the underlying artifact when the
/// caller knows it (file loads), 0 when the stream is unbounded. A
/// known size lets the header's claimed payload length be rejected
/// before any payload byte is read or buffered.
MpkPlan load_plan_impl(std::istream& in, std::uint64_t total_size) {
  char magic[8];
  in.read(magic, sizeof(magic));
  FBMPK_CHECK_CODE(in.good() && std::memcmp(magic, kMagic, 8) == 0,
                   ErrorCode::kCorruptPlan, "not an FBMPK plan stream");

  std::uint32_t version = 0, index_width = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  FBMPK_CHECK_CODE(in.good(), ErrorCode::kCorruptPlan,
                   "truncated plan header");
  FBMPK_CHECK_CODE(version == kVersion, ErrorCode::kVersionMismatch,
                   "unsupported plan version "
                       << version << " (this build reads version "
                       << kVersion
                       << " only); regenerate it with `fbmpk_cli plan`");
  in.read(reinterpret_cast<char*>(&index_width), sizeof(index_width));
  in.read(reinterpret_cast<char*>(&payload_size), sizeof(payload_size));
  in.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  FBMPK_CHECK_CODE(in.good(), ErrorCode::kCorruptPlan,
                   "truncated plan header");
  FBMPK_CHECK_CODE(index_width == sizeof(index_t),
                   ErrorCode::kVersionMismatch,
                   "plan was written with index width " << index_width
                                                        << ", this build uses "
                                                        << sizeof(index_t));
  FBMPK_CHECK_CODE(payload_size < kMaxPlausibleBytes,
                   ErrorCode::kCorruptPlan,
                   "implausible payload size: " << payload_size);
  FBMPK_CHECK_CODE(payload_size <= plan_payload_cap(),
                   ErrorCode::kResourceLimit,
                   "plan payload of " << payload_size
                                      << " bytes exceeds the configured cap "
                                      << plan_payload_cap());
  if (total_size > 0)
    FBMPK_CHECK_CODE(kHeaderBytes + payload_size == total_size,
                     ErrorCode::kCorruptPlan,
                     "plan header claims " << payload_size
                                           << " payload bytes but the file "
                                              "holds "
                                           << (total_size - kHeaderBytes));

  // Read the payload in bounded chunks: a corrupted payload_size just
  // under the plausibility bound must not commit a huge zero-filled
  // allocation before the stream reveals it holds far fewer bytes.
  std::string payload;
  {
    constexpr std::size_t kChunk = std::size_t{1} << 20;
    std::uint64_t got = 0;
    while (got < payload_size) {
      const auto want = static_cast<std::size_t>(
          std::min<std::uint64_t>(kChunk, payload_size - got));
      const std::size_t old = payload.size();
      payload.resize(old + want);
      in.read(payload.data() + old, static_cast<std::streamsize>(want));
      const auto n = static_cast<std::uint64_t>(in.gcount());
      got += n;
      if (n < want) {
        payload.resize(old + static_cast<std::size_t>(n));
        break;
      }
    }
    FBMPK_CHECK_CODE(got == payload_size, ErrorCode::kCorruptPlan,
                     "truncated plan payload: expected " << payload_size
                                                         << " bytes, got "
                                                         << got);
  }
  const auto actual_crc = crc32(payload.data(), payload.size());
  FBMPK_CHECK_CODE(actual_crc == stored_crc, ErrorCode::kCorruptPlan,
                   "plan payload checksum mismatch (stored 0x"
                       << std::hex << stored_crc << ", computed 0x"
                       << actual_crc << ")");

  BlobReader r(payload.data(), payload.size());
  MpkPlan plan;

  auto sec = r.begin_section(kSecOptions, "options");
  plan.n_ = r.pod<index_t>();
  FBMPK_CHECK_CODE(plan.n_ >= 0, ErrorCode::kCorruptPlan,
                   "negative dimension in plan");
  plan.opts_.reorder = r.boolean();
  plan.opts_.abmc.num_blocks = r.pod<index_t>();
  plan.opts_.abmc.blocking = r.enumeration<BlockingStrategy>(2, "blocking");
  plan.opts_.abmc.coloring = r.enumeration<ColoringOrder>(3, "coloring");
  plan.opts_.parallel = r.boolean();
  plan.opts_.scheduler = r.enumeration<Scheduler>(2, "scheduler");
  plan.opts_.variant = r.enumeration<FbVariant>(2, "variant");
  plan.opts_.sweep.sync = r.enumeration<SweepSync>(2, "sweep sync");
  FBMPK_CHECK_CODE(plan.opts_.scheduler != Scheduler::kAbmc ||
                       plan.opts_.sweep.sync == SweepSync::kBarrier,
                   ErrorCode::kCorruptPlan,
                   "ABMC plan claims point-to-point sync (ABMC plans run "
                   "the per-color barrier kernel)");
  plan.opts_.sweep.threads = r.pod<index_t>();
  FBMPK_CHECK_CODE(plan.opts_.sweep.threads >= 0, ErrorCode::kCorruptPlan,
                   "negative sweep thread count in plan");
  plan.opts_.sweep.pin_threads = r.boolean();
  plan.opts_.validate_input = r.boolean();
  plan.opts_.sanitize.policy = r.enumeration<RepairPolicy>(3, "policy");
  plan.opts_.sanitize.check_finite = r.boolean();
  plan.opts_.sanitize.check_duplicates = r.boolean();
  plan.opts_.sanitize.check_explicit_zeros = r.boolean();
  plan.opts_.sanitize.check_diagonal = r.boolean();
  plan.opts_.sanitize.zero_diag_tolerance = r.pod<double>();
  plan.opts_.sanitize.patched_diagonal = r.pod<double>();
  plan.opts_.kernel_backend =
      r.enumeration<KernelBackend>(3, "kernel backend");
  plan.opts_.index_compress = r.boolean();
  plan.opts_.prefetch_dist = r.pod<std::int32_t>();
  FBMPK_CHECK_CODE(
      plan.opts_.prefetch_dist >= 0 && plan.opts_.prefetch_dist <= 1024,
      ErrorCode::kCorruptPlan,
      "prefetch distance out of range in plan: " << plan.opts_.prefetch_dist);
  plan.opts_.value_precision =
      r.enumeration<ValuePrecision>(2, "value precision");
  plan.opts_.autotune_oracle = r.boolean();
  r.end_section(sec, "options");

  sec = r.begin_section(kSecStats, "stats");
  plan.stats_ = r.pod<PlanStats>();
  r.end_section(sec, "stats");

  sec = r.begin_section(kSecPerm, "permutation");
  try {
    plan.perm_ = Permutation(r.vec<std::vector<index_t>>());
  } catch (const Error& e) {
    throw Error(ErrorCode::kCorruptPlan,
                std::string("corrupt permutation in plan: ") + e.what());
  }
  r.end_section(sec, "permutation");

  sec = r.begin_section(kSecSchedule, "schedule");
  plan.schedule_.num_blocks = r.pod<index_t>();
  plan.schedule_.num_colors = r.pod<index_t>();
  plan.schedule_.block_ptr = r.vec<std::vector<index_t>>();
  plan.schedule_.color_ptr = r.vec<std::vector<index_t>>();
  FBMPK_CHECK_CODE(
      plan.schedule_.num_blocks >= 0 && plan.schedule_.num_colors >= 0,
      ErrorCode::kCorruptPlan, "negative schedule counts in plan");
  FBMPK_CHECK_CODE(
      plan.schedule_.block_ptr.empty() ||
          plan.schedule_.block_ptr.size() ==
              static_cast<std::size_t>(plan.schedule_.num_blocks) + 1,
      ErrorCode::kCorruptPlan, "schedule block_ptr shape mismatch");
  FBMPK_CHECK_CODE(
      plan.schedule_.color_ptr.empty() ||
          plan.schedule_.color_ptr.size() ==
              static_cast<std::size_t>(plan.schedule_.num_colors) + 1,
      ErrorCode::kCorruptPlan, "schedule color_ptr shape mismatch");
  check_ptr_array(plan.schedule_.block_ptr, plan.n_, "schedule block_ptr");
  check_ptr_array(plan.schedule_.color_ptr, plan.schedule_.num_blocks,
                  "schedule color_ptr");
  plan.schedule_.perm = plan.perm_;
  r.end_section(sec, "schedule");

  sec = r.begin_section(kSecLevels, "levels");
  LevelSweepSchedule& ls = plan.level_sweep_schedule_;
  ls.num_threads = r.pod<index_t>();
  FBMPK_CHECK_CODE(ls.num_threads >= 0, ErrorCode::kCorruptPlan,
                   "negative level schedule thread count in plan");
  ls.fwd = read_level_direction(r);
  ls.bwd = read_level_direction(r);
  ls.fwd_dep_ptr = r.vec<std::vector<index_t>>();
  ls.fwd_deps = r.vec<std::vector<LevelDep>>();
  ls.bwd_dep_ptr = r.vec<std::vector<index_t>>();
  ls.bwd_deps = r.vec<std::vector<LevelDep>>();
  ls.bwd_fdep_ptr = r.vec<std::vector<index_t>>();
  ls.bwd_fdeps = r.vec<std::vector<LevelDep>>();
  FBMPK_CHECK_CODE(ls.empty() || plan.level_plan(), ErrorCode::kCorruptPlan,
                   "plan carries a level-blocked schedule but is not "
                   "level-scheduled");
  FBMPK_CHECK_CODE(!ls.empty() || !plan.level_plan(), ErrorCode::kCorruptPlan,
                   "level-scheduled plan carries no stage schedule");
  r.end_section(sec, "levels");

  // A level plan's triangles are stored renumbered (perm_ maps each
  // stored row to the original row they are strict triangles in).
  const std::span<const index_t> base_of =
      plan.level_plan() ? plan.perm_.order() : std::span<const index_t>{};
  sec = r.begin_section(kSecSplit, "split");
  plan.split_.lower = read_csr(r, base_of, Triangle::kLower);
  plan.split_.upper = read_csr(r, base_of, Triangle::kUpper);
  plan.split_.diag = r.vec<AlignedVector<double>>();
  r.end_section(sec, "split");

  sec = r.begin_section(kSecPacked, "packed index");
  plan.packed_.lower = read_packed(r, "lower");
  plan.packed_.upper = read_packed(r, "upper");
  r.end_section(sec, "packed index");

  sec = r.begin_section(kSecValues, "packed values");
  plan.values_.precision =
      r.enumeration<ValuePrecision>(2, "sidecar precision");
  plan.values_.lower = read_values(r, "lower");
  plan.values_.upper = read_values(r, "upper");
  plan.values_.diag = read_values(r, "diag");
  r.end_section(sec, "packed values");

  sec = r.begin_section(kSecTuned, "tuned config");
  TunedConfig& t = plan.tuned_;
  t.valid = r.boolean();
  t.backend = r.enumeration<KernelBackend>(3, "tuned backend");
  t.index_compress = r.boolean();
  t.value_precision = r.enumeration<ValuePrecision>(2, "tuned precision");
  t.tuned_threads = r.pod<index_t>();
  FBMPK_CHECK_CODE(t.tuned_threads >= 0, ErrorCode::kCorruptPlan,
                   "negative tuned thread count in plan");
  t.best_seconds = r.pod<double>();
  FBMPK_CHECK_CODE(t.best_seconds >= 0.0, ErrorCode::kCorruptPlan,
                   "negative tuned timing in plan");
  t.oracle_used = r.boolean();
  t.oracle_predicted_bytes = r.pod<double>();
  FBMPK_CHECK_CODE(t.oracle_predicted_bytes >= 0.0, ErrorCode::kCorruptPlan,
                   "negative oracle prediction in plan");
  t.candidates_scored = r.pod<index_t>();
  t.candidates_timed = r.pod<index_t>();
  t.oracle_rank_of_winner = r.pod<index_t>();
  FBMPK_CHECK_CODE(t.candidates_scored >= 0 && t.candidates_timed >= 0 &&
                       t.candidates_timed <= t.candidates_scored &&
                       t.oracle_rank_of_winner >= 0 &&
                       t.oracle_rank_of_winner <= t.candidates_timed,
                   ErrorCode::kCorruptPlan,
                   "inconsistent oracle provenance counts in plan");
  t.scheduler = r.enumeration<Scheduler>(2, "tuned scheduler");
  t.scheduler_measured = r.boolean();
  t.scheduler_alt_seconds = r.pod<double>();
  FBMPK_CHECK_CODE(t.scheduler_alt_seconds >= 0.0, ErrorCode::kCorruptPlan,
                   "negative scheduler timing in plan");
  r.end_section(sec, "tuned config");
  r.expect_exhausted();

  if (plan.opts_.index_compress) {
    // The CRC already rejects raw byte flips; this decode-compare
    // additionally rejects any internally-consistent sidecar that does
    // not reproduce the split's column stream (same discipline as the
    // level schedule's structural re-validation).
    FBMPK_CHECK_CODE(
        plan.packed_.lower.matches(plan.split_.lower.rows(),
                                   plan.split_.lower.row_ptr().data(),
                                   plan.split_.lower.col_idx().data()) &&
            plan.packed_.upper.matches(plan.split_.upper.rows(),
                                       plan.split_.upper.row_ptr().data(),
                                       plan.split_.upper.col_idx().data()),
        ErrorCode::kCorruptPlan,
        "packed index does not reproduce the split's column stream");
  } else {
    FBMPK_CHECK_CODE(plan.packed_.empty(), ErrorCode::kCorruptPlan,
                     "plan carries a packed index but index_compress is off");
  }

  if (plan.opts_.value_precision != ValuePrecision::kFp64) {
    // Same discipline as PCKD: re-encode the split's fp64 values at the
    // stored precision and require a bitwise match, so an
    // internally-consistent but tampered value stream cannot load.
    const auto lv = std::span<const double>(plan.split_.lower.values());
    const auto uv = std::span<const double>(plan.split_.upper.values());
    const auto dv = std::span<const double>(plan.split_.diag);
    FBMPK_CHECK_CODE(plan.values_.precision == plan.opts_.value_precision,
                     ErrorCode::kCorruptPlan,
                     "value sidecar precision disagrees with plan options");
    FBMPK_CHECK_CODE(plan.values_.lower.matches(lv) &&
                         plan.values_.upper.matches(uv) &&
                         plan.values_.diag.matches(dv),
                     ErrorCode::kCorruptPlan,
                     "value sidecar does not reproduce the split's values");
    plan.stats_.packed_value_bytes = plan.values_.value_bytes();
  } else {
    FBMPK_CHECK_CODE(plan.values_.empty() && plan.values_.lower.empty() &&
                         plan.values_.upper.empty() &&
                         plan.values_.diag.empty(),
                     ErrorCode::kCorruptPlan,
                     "plan carries value sidecars but precision is fp64");
  }

  // Re-resolve the executing backend for this process: kAuto probes
  // CPUID; a stored concrete backend this CPU cannot run degrades to
  // the portable probe result instead of failing the load.
  plan.resolved_backend_ =
      backend_available(plan.opts_.kernel_backend)
          ? resolve_backend(plan.opts_.kernel_backend)
          : resolve_backend(KernelBackend::kAuto);

  FBMPK_CHECK_CODE(plan.split_.lower.rows() == plan.n_ &&
                       plan.split_.lower.cols() == plan.n_ &&
                       plan.split_.upper.rows() == plan.n_ &&
                       plan.split_.upper.cols() == plan.n_ &&
                       plan.split_.diag.size() ==
                           static_cast<std::size_t>(plan.n_) &&
                       plan.perm_.size() == plan.n_,
                   ErrorCode::kCorruptPlan, "inconsistent plan payload");

  // Structurally re-validate a loaded level-blocked schedule against
  // the (renumbered) split. A schedule is data for one thread count:
  // when the plan wants another (threads == 0 means the runtime
  // default, which may differ from the build host's), rebuild the
  // schedule, the renumbering and the sidecars (which hold the split's
  // rows in its numbering) together rather than failing or silently
  // running a mismatched schedule.
  if (plan.level_plan()) {
    FBMPK_CHECK_CODE(validate_level_sweep_schedule(plan.level_sweep_schedule_,
                                                   plan.split_),
                     ErrorCode::kCorruptPlan,
                     "level-blocked schedule fails structural validation");
    const index_t want = plan.opts_.sweep.threads > 0
                             ? plan.opts_.sweep.threads
                             : static_cast<index_t>(max_threads());
    if (plan.level_sweep_schedule_.num_threads != want) {
      plan.renumber_by_ownership(want);
      plan.pack_sidecars();
    }
  }

  // The tuned choice is advice from the machine that ran the autotuner;
  // flag it stale (rather than dropping it) when this process cannot
  // honor it, so callers can decide whether to re-tune.
  plan.tuned_.stale =
      tuned_config_stale(plan.tuned_, static_cast<index_t>(max_threads()));

  plan.internal_ws_ = std::make_unique<MpkPlan::Workspace>();
  return plan;
}

}  // namespace detail

MpkPlan load_plan(std::istream& in) { return detail::load_plan_impl(in, 0); }

void save_plan_file(const MpkPlan& plan, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  FBMPK_CHECK_CODE(out.is_open(), ErrorCode::kIo,
                   "cannot open for write: " << path);
  save_plan(plan, out);
}

MpkPlan load_plan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FBMPK_CHECK_CODE(in.is_open(), ErrorCode::kIo, "cannot open: " << path);
  // Measure the artifact so the header's claimed payload length can be
  // validated against reality before anything is allocated.
  in.seekg(0, std::ios::end);
  const auto end_pos = in.tellg();
  in.seekg(0, std::ios::beg);
  FBMPK_CHECK_CODE(end_pos >= 0 && in.good(), ErrorCode::kIo,
                   "cannot determine size of: " << path);
  return detail::load_plan_impl(in, static_cast<std::uint64_t>(end_pos));
}

Expected<MpkPlan> try_load_plan(std::istream& in) {
  try {
    return load_plan(in);
  } catch (const Error& e) {
    return e;
  }
}

Expected<MpkPlan> try_load_plan_file(const std::string& path) {
  try {
    return load_plan_file(path);
  } catch (const Error& e) {
    return e;
  }
}

}  // namespace fbmpk
