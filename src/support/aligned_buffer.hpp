// Cache-line/SIMD aligned storage for numeric arrays.
//
// Sparse kernels stream large arrays of indices and values; aligning them
// to 64 bytes keeps every vector load within one cache line and gives the
// compiler a known alignment for vectorization.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace fbmpk {

/// Default alignment for all numeric buffers (one x86/ARM cache line).
inline constexpr std::size_t kCacheLineBytes = 64;

namespace detail {
inline thread_local bool skip_zero_fill = false;
}  // namespace detail

/// While one is alive, AlignedVector<T>(n) and resize(n) *on the
/// constructing thread* leave trivial elements uninitialized instead of
/// zero-filling them. For a builder whose parallel fill writes every
/// element: the serial zero-fill (and its page faults) is skipped and
/// first touch happens in the fill. Keep the scope around the
/// allocations only; outside one, nothing changes.
class NoZeroFillScope {
 public:
  NoZeroFillScope() : prev_(detail::skip_zero_fill) {
    detail::skip_zero_fill = true;
  }
  ~NoZeroFillScope() { detail::skip_zero_fill = prev_; }
  NoZeroFillScope(const NoZeroFillScope&) = delete;
  NoZeroFillScope& operator=(const NoZeroFillScope&) = delete;

 private:
  bool prev_;
};

/// Minimal C++17 aligned allocator; std::vector<T, AlignedAllocator<T>>
/// gives 64-byte aligned, value-initialized storage (default-initialized
/// for trivial T inside a NoZeroFillScope).
template <class T, std::size_t Align = kCacheLineBytes>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(Align >= alignof(T), "alignment weaker than natural");
  static_assert((Align & (Align - 1)) == 0, "alignment must be a power of 2");

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    // Round the byte count up to a multiple of the alignment as required
    // by std::aligned_alloc.
    std::size_t bytes = (n * sizeof(T) + Align - 1) / Align * Align;
    void* p = std::aligned_alloc(Align, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  void construct(U* p) {
    if (std::is_trivially_default_constructible_v<U> &&
        detail::skip_zero_fill)
      ::new (static_cast<void*>(p)) U;
    else
      ::new (static_cast<void*>(p)) U();
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// The library-wide vector type for numeric data.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace fbmpk
