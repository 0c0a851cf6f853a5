// Over-aligned heap allocation for amplitude buffers.
//
// std::vector<std::complex<double>> only guarantees 16-byte alignment,
// while the explicit SIMD kernels (quantum/simd_kernels.hpp) stream the
// amplitude array in 32- and 64-byte vectors.  The kernels use
// unaligned loads for correctness, but cacheline-aligned buffers keep
// every vector access inside one line and make the alignment guarantee
// testable instead of accidental — tests/test_simd_kernels.cpp fails if
// Statevector data stops being 64-byte aligned while a vector tier is
// active.
#ifndef QAOAML_QUANTUM_ALIGNED_HPP
#define QAOAML_QUANTUM_ALIGNED_HPP

#include <cstddef>
#include <new>
#include <type_traits>

namespace qaoaml::quantum {

/// Alignment of Statevector amplitude storage: one x86 cacheline, which
/// is also one full AVX-512 vector.
inline constexpr std::size_t kAmplitudeAlignment = 64;

/// Minimal C++17 aligned allocator: std::allocator semantics with every
/// allocation aligned to `Alignment` bytes via the over-aligned operator
/// new, except that elements made without a value (a sized construction
/// or resize()) are left uninitialized.  Every amplitude buffer is
/// written by whatever sizes it, and a value-initialization there would
/// page-fault the whole buffer serially, on one thread, before the
/// parallel pass that writes it.  All instances compare equal
/// (stateless), so containers can exchange storage freely.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n > max_size()) throw std::bad_alloc();
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  /// Leaves the element uninitialized (see above); constructions with
  /// arguments take the default placement-new path.
  template <typename U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_copyable_v<U> &&
                      std::is_trivially_destructible_v<U>,
                  "only trivially copyable elements may stay uninitialized");
  }

 private:
  static constexpr std::size_t max_size() {
    return static_cast<std::size_t>(-1) / sizeof(T);
  }
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAllocator<T, A>&,
                const AlignedAllocator<U, A>&) noexcept {
  return true;
}
template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAllocator<T, A>&,
                const AlignedAllocator<U, A>&) noexcept {
  return false;
}

}  // namespace qaoaml::quantum

#endif  // QAOAML_QUANTUM_ALIGNED_HPP
