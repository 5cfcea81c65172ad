// Deterministic fault injection for robustness tests.
//
// Stream-level primitives exercise the untrusted-input and export
// paths:
//   * ShortReadStream  — an istream that yields the first N bytes of a
//     blob and then reports EOF, simulating truncated files.
//   * FailingStream    — an istream whose underlying buffer hard-fails
//     (badbit) after N bytes, simulating mid-read I/O errors.
//   * FailingWriteStream — an ostream whose sink accepts N bytes and
//     then hard-fails (badbit), simulating a full disk / dead pipe for
//     writers like the telemetry trace export.
//   * flip_byte        — single-byte XOR mutator for checksum tests.
//
// The stream primitives are deterministic by construction: no clocks,
// no RNG. The fault-injection suite (tests/test_fault_injection.cpp)
// uses them to prove that every single-byte mutation and every
// truncation point of a valid plan blob is rejected with a typed
// fbmpk::Error.
//
// fault::Injector adds *runtime* fault points for the serving layer
// (src/service/): named sites in production code consult the injector
// and, when armed, simulate an allocation failure, a stalled sweep
// stage, a corrupted cache entry, or a full admission queue. Disarmed
// cost is a single relaxed atomic load, so the hooks stay compiled in
// for release/soak builds. Arming is deterministic: "skip the first S
// passes through the point, then fire F times".
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>

namespace fbmpk {

/// Streambuf over an in-memory blob that stops delivering bytes after
/// `limit` — reads past the limit see EOF, exactly like a truncated
/// file on disk.
class ShortReadBuf : public std::streambuf {
 public:
  ShortReadBuf(const std::string& blob, std::size_t limit)
      : data_(blob.data()), size_(blob.size() < limit ? blob.size() : limit) {
    char* base = const_cast<char*>(data_);
    setg(base, base, base + size_);
  }

 private:
  const char* data_;
  std::size_t size_;
};

/// istream that delivers only the first `limit` bytes of `blob`.
class ShortReadStream : public std::istream {
 public:
  ShortReadStream(const std::string& blob, std::size_t limit)
      : std::istream(nullptr), buf_(blob, limit) {
    rdbuf(&buf_);
  }

 private:
  ShortReadBuf buf_;
};

/// Streambuf that serves `limit` bytes and then signals a hard device
/// failure (underflow throws, which iostreams translate to badbit) —
/// distinct from EOF: the OS said "read error", not "end of file".
class FailingBuf : public std::streambuf {
 public:
  FailingBuf(const std::string& blob, std::size_t limit)
      : blob_(blob), limit_(limit < blob.size() ? limit : blob.size()) {
    char* base = const_cast<char*>(blob_.data());
    setg(base, base, base + limit_);
  }

 protected:
  int_type underflow() override {
    throw std::ios_base::failure("injected read fault");
  }

 private:
  std::string blob_;
  std::size_t limit_;
};

/// istream whose source hard-fails after `limit` bytes. The stream is
/// configured so the injected failure surfaces as badbit rather than an
/// escaping ios_base::failure.
class FailingStream : public std::istream {
 public:
  FailingStream(const std::string& blob, std::size_t limit)
      : std::istream(nullptr), buf_(blob, limit) {
    rdbuf(&buf_);
    exceptions(std::ios_base::goodbit);  // failures become badbit
  }

 private:
  FailingBuf buf_;
};

/// Streambuf that accepts `limit` bytes into an internal string and
/// then refuses further output, as a full disk or dead pipe would.
/// overflow() returning eof sets badbit on the owning stream.
class FailingWriteBuf : public std::streambuf {
 public:
  explicit FailingWriteBuf(std::size_t limit) : limit_(limit) {}

  const std::string& written() const { return written_; }

 protected:
  int_type overflow(int_type ch) override {
    if (written_.size() >= limit_ || traits_type::eq_int_type(
                                         ch, traits_type::eof()))
      return traits_type::eof();
    written_.push_back(traits_type::to_char_type(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::streamsize accepted = 0;
    while (accepted < n && written_.size() < limit_) {
      written_.push_back(s[accepted]);
      ++accepted;
    }
    return accepted;
  }

 private:
  std::string written_;
  std::size_t limit_;
};

/// ostream whose sink hard-fails after `limit` bytes. `written()`
/// exposes what got through before the fault, so tests can assert that
/// consumers of the stream never published a truncated artifact.
class FailingWriteStream : public std::ostream {
 public:
  explicit FailingWriteStream(std::size_t limit)
      : std::ostream(nullptr), buf_(limit) {
    rdbuf(&buf_);
    exceptions(std::ios_base::goodbit);  // failures become badbit
  }

  const std::string& written() const { return buf_.written(); }

 private:
  FailingWriteBuf buf_;
};

/// XOR the byte at `pos` with `mask` (mask must be nonzero to actually
/// mutate). Returns the mutated copy.
inline std::string flip_byte(std::string blob, std::size_t pos,
                             std::uint8_t mask = 0xFF) {
  blob[pos] = static_cast<char>(static_cast<std::uint8_t>(blob[pos]) ^ mask);
  return blob;
}

namespace fault {

/// Named runtime fault sites. Each maps to exactly one place in the
/// serving/kernel code (docs/SERVICE.md lists them all).
enum class Point : int {
  kAlloc = 0,         ///< service-side workspace/plan allocation fails
  kSweepStall,        ///< sleep at a sweep stage boundary (stuck sweep)
  kQueueFull,         ///< admission control reports the queue full
  kPrecisionCertify,  ///< force a precision-certification failure
  kAutotuneBuild,     ///< fail a candidate plan build inside autotune
  kCount_,            // sentinel
};

inline constexpr int kPointCount = static_cast<int>(Point::kCount_);

/// Process-global runtime fault injector. Thread-safe: arming uses a
/// mutex-free atomic protocol; firing is a bounded claim on atomic
/// counters, so under concurrency the total number of fires never
/// exceeds the armed count (which test assertions rely on).
class Injector {
 public:
  static Injector& instance() {
    static Injector inj;
    return inj;
  }

  /// Arm `point`: let the first `skip` passes through, then fire on the
  /// next `fires` passes. `stall_ms` only matters for stall-style
  /// points (how long the firing thread sleeps).
  void arm(Point point, long long fires, long long skip = 0,
           long long stall_ms = 50) {
    Slot& s = slot(point);
    s.fires.store(0, std::memory_order_relaxed);  // close while updating
    s.skip.store(skip, std::memory_order_relaxed);
    s.stall_ms.store(stall_ms, std::memory_order_relaxed);
    s.fires.store(fires, std::memory_order_relaxed);
    armed_points_.fetch_add(1, std::memory_order_release);
  }

  /// Disarm every point and forget fire counts.
  void reset() {
    for (Slot& s : slots_) {
      s.fires.store(0, std::memory_order_relaxed);
      s.skip.store(0, std::memory_order_relaxed);
      s.fired.store(0, std::memory_order_relaxed);
    }
    armed_points_.store(0, std::memory_order_release);
  }

  /// Consult the point; true exactly when this pass fires the fault.
  /// Disarmed fast path: one relaxed load of armed_points_.
  bool should_fire(Point point) {
    if (armed_points_.load(std::memory_order_relaxed) == 0) return false;
    Slot& s = slot(point);
    if (s.fires.load(std::memory_order_relaxed) <= 0) return false;
    if (s.skip.load(std::memory_order_relaxed) > 0 &&
        s.skip.fetch_sub(1, std::memory_order_relaxed) > 0)
      return false;
    if (s.fires.fetch_sub(1, std::memory_order_relaxed) > 0) {
      s.fired.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Stall-style consultation: sleep for the armed duration when the
  /// point fires. Used at sweep stage boundaries.
  void maybe_stall(Point point) {
    if (armed_points_.load(std::memory_order_relaxed) == 0) return;
    if (should_fire(point))
      std::this_thread::sleep_for(
          std::chrono::milliseconds(slot(point).stall_ms.load(
              std::memory_order_relaxed)));
  }

  /// Times `point` actually fired since the last reset().
  long long fired(Point point) const {
    return slots_[static_cast<std::size_t>(point)].fired.load(
        std::memory_order_relaxed);
  }

 private:
  Injector() = default;
  struct Slot {
    std::atomic<long long> fires{0};
    std::atomic<long long> skip{0};
    std::atomic<long long> stall_ms{0};
    std::atomic<long long> fired{0};
  };
  Slot& slot(Point p) { return slots_[static_cast<std::size_t>(p)]; }

  std::array<Slot, static_cast<std::size_t>(kPointCount)> slots_{};
  /// Nonzero once any point was armed since the last reset(). Monotone
  /// within an arm epoch — a fired-out point keeps this nonzero, which
  /// only costs the (cheap) per-slot check, never correctness.
  std::atomic<int> armed_points_{0};
};

/// Free-function shims so call sites stay one line.
inline bool should_fire(Point p) {
  return Injector::instance().should_fire(p);
}
inline void maybe_stall(Point p) { Injector::instance().maybe_stall(p); }

}  // namespace fault

}  // namespace fbmpk
