// Explicit SIMD amplitude-kernel primitives, one implementation per
// dispatch tier (quantum/dispatch.hpp).
//
// The fused-layer driver (quantum/fused_kernels.cpp) and the diagonal
// expectation reduction (quantum/statevector.cpp) keep all range
// orchestration — tiling, amplitude-range sharding over the thread
// pool, the blocked reduction tree — and delegate the contiguous inner
// loops to the function-pointer table below, which the caller resolves
// from the active tier.
//
// Bit-identity contract: every tier computes, per amplitude, the SAME
// sequence of IEEE-754 double operations as the scalar implementation.
// The vector kernels therefore use separate multiply and add (never
// FMA), flip signs only through exact operations (xor of the sign bit,
// multiplication by +-1.0), and exploit only bitwise-exact algebraic
// identities (commutativity of +, x*(-y) == -(x*y)).  This is what lets
// the differential suite pin AVX2 and AVX-512 against the scalar path
// with == on doubles, not a tolerance, and what keeps every committed
// golden fixture valid on every machine.
//
// Reduction tree: a block's <C> partial runs on EIGHT independent lane
// accumulators (lane j sums the terms j, j+8, j+16, ... of the block,
// in index order) combined as
//   ((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7)).
// The lane count matches one AVX-512 register (two AVX2 registers,
// eight scalar accumulators), so all three tiers realize the identical
// summation tree and the blocked reduction on top of it stays
// bit-deterministic for every thread and shard count.  The lane
// accumulators are exposed (expectation_lanes) rather than only the
// combined block sum, so that one block can take its terms from two
// ranges: the mirror-symmetric half state (quantum/statevector.hpp)
// sums the upper half of a block by reading the lower half reversed.
#ifndef QAOAML_QUANTUM_SIMD_KERNELS_HPP
#define QAOAML_QUANTUM_SIMD_KERNELS_HPP

#include <cstddef>

#include "quantum/dispatch.hpp"
#include "quantum/complex.hpp"

namespace qaoaml::quantum::simd {

/// Contiguous inner-loop primitives for one dispatch tier.  All lengths
/// are in amplitudes (complex doubles); arrays must not alias except
/// where noted.  Every function tolerates arbitrary (also odd) lengths
/// via scalar tail loops that reuse the identical per-element formulas.
struct KernelTable {
  SimdTier tier;

  /// amps[z] *= exp(-i * gamma * diag[z]) for z in [0, count).  The
  /// phase arguments go through scalar std::cos/std::sin on every tier
  /// (libm is the bit-identity anchor); only the complex multiply is
  /// vectorized.
  void (*phase_general)(Complex* amps, const double* diag, double gamma,
                        std::size_t count);

  /// amps[z] *= phases[diag[z]] for z in [0, count); every diag entry
  /// must index into `phases` (callers validate).
  void (*phase_integral)(Complex* amps, const int* diag,
                         const Complex* phases, std::size_t count);

  /// RX(beta) butterflies for all `m` low qubit levels of one
  /// cache-resident tile of 2^m amplitudes, level order t = 0..m-1,
  /// with c = cos(beta/2), s = sin(beta/2).
  ///
  /// The vector tiers keep the tile in register rows (2 amplitudes per
  /// AVX2 register, 4 per AVX-512 register) and never call
  /// butterfly_pair per run:
  ///  - the levels whose partner sits in the same register are applied
  ///    in-register: t = 0 on AVX2; t = 0 and t = 1 (a 256-bit half
  ///    swap) on AVX-512;
  ///  - every further level pair (t, t+1) is one radix-4 pass over four
  ///    register rows, with butterfly_quad's op order per element; the
  ///    first pair rides in the in-register pass, so each group of four
  ///    adjacent rows is loaded once for three (AVX2) or four (AVX-512)
  ///    levels;
  ///  - a leftover top level is one radix-2 pass.
  /// An 8-qubit tile thus takes 3 passes over its rows on AVX-512 (4 on
  /// AVX2) instead of 1 in-register pass plus 127 butterfly_pair calls.
  /// Loads and stores are unaligned, so `tile` needs no alignment.
  void (*mix_tile)(Complex* tile, int m, double c, double s);

  /// One RX butterfly level over two parallel rows: for j in [0, len),
  /// (p0[j], p1[j]) <- butterfly(p0[j], p1[j]).
  void (*butterfly_pair)(Complex* p0, Complex* p1, std::size_t len, double c,
                         double s);

  /// Two fused RX levels over four parallel rows (the high-qubit quad
  /// sweep): per j, butterflies (p0,p1), (p2,p3), then (p0,p2), (p1,p3)
  /// — exactly the scalar order.
  void (*butterfly_quad)(Complex* p0, Complex* p1, Complex* p2, Complex* p3,
                         std::size_t len, double c, double s);

  /// The mirror RX level of a Z2-symmetric half state: for j in
  /// [0, len), (p0[j], p1[len-1-j]) <- butterfly(p0[j], p1[len-1-j]);
  /// the second row is read and written back reversed.  The rows must
  /// not overlap.
  void (*butterfly_mirror)(Complex* p0, Complex* p1, std::size_t len,
                           double c, double s);

  /// Adds term k = |amps[k]|^2 * diag[k] to lane[k % 8] for k in
  /// [0, count), in ascending k: one range of a block's canonical
  /// reduction (combine_lanes finishes it).  Reads and writes exactly
  /// lane[0 .. min(count, 8)).
  void (*expectation_lanes)(double* lane, const Complex* amps,
                            const double* diag, std::size_t count);

  /// The same over the range read backwards: term k is
  /// |amps[count-1-k]|^2 * diag[count-1-k], added to lane[k % 8] in
  /// ascending k.  Same lane contract as expectation_lanes.
  void (*expectation_lanes_reversed)(double* lane, const Complex* amps,
                                     const double* diag, std::size_t count);
};

/// The canonical tree over eight lane accumulators.
inline double combine_lanes(const double* lane) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/// One block's canonical reduction of sum_k |amps[k]|^2 * diag[k]:
/// zeroed lanes, expectation_lanes, combine_lanes.
inline double expectation_block(const KernelTable& kt, const Complex* amps,
                                const double* diag, std::size_t count) {
  double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  kt.expectation_lanes(lane, amps, diag, count);
  return combine_lanes(lane);
}

/// The table for `tier`; throws InvalidArgument when this build or CPU
/// cannot execute it.
const KernelTable& kernels(SimdTier tier);

/// kernels(active_simd_tier()).  Tier selection may read QAOAML_SIMD,
/// so hot loops resolve the table once and pass it down.
const KernelTable& active_kernels();

}  // namespace qaoaml::quantum::simd

#endif  // QAOAML_QUANTUM_SIMD_KERNELS_HPP
