// Fused QAOA layer kernels.
//
// One QAOA layer is exp(-i * beta/2 * sum_q X_q) * exp(-i * gamma * C):
// a diagonal phase followed by the mixer RX(beta) on every qubit.  The
// gate-by-gate route costs n + 1 full passes over the 2^n amplitudes —
// a memory-bound disaster once the state outgrows cache.  These kernels
// restructure the layer into a handful of passes:
//
//  - Sweep 1 walks the array once in cache-resident tiles of
//    2^kBlockQubits amplitudes, applying the diagonal phase and the
//    butterfly levels of the kBlockQubits low ("local") qubits while the
//    tile is hot in L1.  Inside a tile the vector tiers work on register
//    rows (simd::KernelTable::mix_tile): the levels that fit in one
//    register are applied in-register, and the rest go two at a time as
//    radix-4 passes over four rows, so an 8-qubit layer is one phase
//    pass plus three (AVX-512) or four (AVX2) mixer passes over a 4 KiB
//    tile.  Folding the phase into the first mixer pass was measured
//    and gave no gain at 8 qubits, so the phase stays its own pass.
//  - Sweep 2 handles the remaining high qubits two levels per pass (a
//    fused RX (x) RX four-way butterfly over quadruples of rows), with
//    stride-1 inner loops over four contiguous streams so the compiler
//    auto-vectorizes.
//
// For n <= kBlockQubits + 2 the whole layer is one or two passes; in
// general it is 1 + ceil((n - kBlockQubits) / 2) instead of n + 1.
//
// The contiguous inner loops of every sweep run through the runtime-
// dispatched SIMD kernel table (quantum/simd_kernels.hpp): explicit
// AVX2 / AVX-512 code where the CPU has it, the original scalar loops
// otherwise.  The caller resolves the table (tier selection may read an
// environment variable) and passes it in, so a p-layer state build
// selects its tier once, not once per layer.
//
// Determinism: every kernel is element-wise independent (no reductions),
// and all dispatch tiers are bit-identical by construction, so results
// are bit-identical for every thread count, partition, and SIMD tier.
#ifndef QAOAML_QUANTUM_FUSED_KERNELS_HPP
#define QAOAML_QUANTUM_FUSED_KERNELS_HPP

#include "quantum/gates.hpp"
#include "quantum/simd_kernels.hpp"

namespace qaoaml::quantum::fused {

/// Low qubits handled inside one cache-resident tile by sweep 1:
/// 2^11 amplitudes = 32 KiB, sized to a typical L1d.  Must stay at most
/// kParallelGrainLog2 so parallel grain blocks contain whole tiles.
inline constexpr int kBlockQubits = 11;

/// Fused layer over a general diagonal: amps[z] *= exp(-i*gamma*diag[z]),
/// then RX(beta) on every qubit.  `amps` and `diag` hold 2^num_qubits
/// entries; the arrays must not alias.  Every sweep runs on `kernels`.
void apply_layer(Complex* amps, int num_qubits, const double* diag,
                 double gamma, double beta, int threads,
                 const simd::KernelTable& kernels);

/// Fused layer over an integer diagonal with a precomputed phase table:
/// amps[z] *= phases[diag[z]], then RX(beta) on every qubit.  Every
/// diag[z] must be a valid index into `phases` (callers validate).
void apply_layer_integral(Complex* amps, int num_qubits, const int* diag,
                          const Complex* phases, double beta, int threads,
                          const simd::KernelTable& kernels);

}  // namespace qaoaml::quantum::fused

#endif  // QAOAML_QUANTUM_FUSED_KERNELS_HPP
