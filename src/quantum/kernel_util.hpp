// Shared primitives of the amplitude kernels (statevector.cpp and
// simd_kernels.cpp).  These are the subtle bits — the Annex-G-avoiding
// complex multiply and the bit-insertion pair indexing — kept in one
// place so the gate kernels and the layer kernels cannot silently
// diverge.
#ifndef QAOAML_QUANTUM_KERNEL_UTIL_HPP
#define QAOAML_QUANTUM_KERNEL_UTIL_HPP

#include <cstddef>

#include "quantum/gates.hpp"

namespace qaoaml::quantum::detail {

/// amp *= (pr + i*pi), with the product expanded to avoid __muldc3
/// (GCC otherwise routes std::complex products through Annex G NaN
/// handling, which dominates the simulator's run time).
inline void multiply_amp(Complex& amp, double pr, double pi) {
  const double ar = amp.real();
  const double ai = amp.imag();
  amp = Complex{ar * pr - ai * pi, ar * pi + ai * pr};
}

/// Index of the k-th basis state whose `target` bit is 0: the low bits
/// below `target` stay in place, the rest shift up one position.
/// `stride` must be 1 << target.
inline std::size_t pair_base(std::size_t k, int target, std::size_t stride) {
  return ((k >> target) << (target + 1)) | (k & (stride - 1));
}

}  // namespace qaoaml::quantum::detail

#endif  // QAOAML_QUANTUM_KERNEL_UTIL_HPP
