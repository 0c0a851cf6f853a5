// Fused QAOA layer kernels.
//
// One QAOA layer is exp(-i * beta/2 * sum_q X_q) * exp(-i * gamma * C):
// a diagonal phase followed by the mixer RX(beta) on every qubit.  The
// gate-by-gate route costs n + 1 full passes over the 2^n amplitudes —
// a memory-bound disaster once the state outgrows cache.  These kernels
// restructure the layer into at most two passes over the state, each a
// parallel_for over tiles that fit in a core's L2 (the qubit-blocking
// technique of qHiPSTER / Intel-QS, arXiv:1601.07195):
//
//  - Pass A walks the state in contiguous tiles of 2^kL2Qubits
//    amplitudes (1 MiB).  Each tile is processed as L1-resident
//    sub-tiles of 2^kBlockQubits amplitudes (32 KiB): the diagonal phase
//    and the butterfly levels 0..kBlockQubits-1 run while the sub-tile
//    is hot.  Inside a sub-tile the vector tiers work on register rows
//    (simd::KernelTable::mix_tile): the levels that fit in one register
//    are applied in-register, and the rest go two at a time as radix-4
//    passes over four rows, so an 8-qubit layer is one phase pass plus
//    three (AVX-512) or four (AVX2) mixer passes over a 4 KiB tile.
//    Folding the phase into the first mixer pass was measured and gave
//    no gain at 8 qubits, so the phase stays its own pass.  Levels
//    kBlockQubits..kL2Qubits-1 then run over the L2-resident tile, two
//    per sweep (butterfly_quad), a leftover one alone (butterfly_pair).
//  - Pass B applies the levels kL2Qubits..n-1.  Its tile is one column
//    of the state seen as 2^(n-kL2Qubits) rows of 2^kL2Qubits
//    amplitudes: the same 2^c-amplitude slice of every row, again about
//    2^kL2Qubits amplitudes in all (slices stay at least 4 KiB long for
//    the prefetcher, so above 24 qubits the tile outgrows 1 MiB).  A
//    high level pairs whole rows, so the tile holds every partner; the
//    levels run in place over it, in ascending pairs, with the same
//    quad/pair kernels.
//
// A layer applied to the uniform superposition (the first layer of a
// state build) writes 2^(-n/2) into each sub-tile just before its phase,
// so the state is not filled in a pass of its own.
//
// Z2-symmetric half state (Storage::kMirrorHalf).  When the diagonal is
// invariant under the global bit flip, d(z) == d(~z) bit for bit with
// ~z = z ^ (2^n - 1) (every MaxCut cost is), the uniform start and
// every RX level commute with the flip, so a(z) == a(~z) exactly all
// through the circuit (Shaydulin et al., arXiv:2012.04713).  A half
// layer then stores only the 2^(n-1) amplitudes with the top bit clear:
//  - the phase and levels 0..n-2 run on the m = n-1 stored qubits
//    exactly as on a full m-qubit state (pass A, and pass B above
//    kL2Qubits stored qubits);
//  - level n-1 pairs z with z | 2^(n-1), which is stored as its mirror
//    M - z (M = 2^(n-1) - 1): the mirror butterfly
//    rx_butterfly(a[z], a[M - z]).  rx_butterfly is symmetric in its
//    two arguments, so the mirror's new value is the upper partner's,
//    bit for bit.  Pass B pairs column tile k with column tile K-1-k
//    (row r with row R-1-r, read reversed) in one task and runs the
//    mirror level after both columns' high levels; without a pass B it
//    runs right after the single pass-A tile (for the paper's n = 8,
//    right after mix_tile over the 7 stored qubits).
// Every amplitude sees the same ops in the same order as in the full
// schedule, so the stored half is bit-identical to the lower half of
// the full state, and its mirror to the upper half.  A half layer reads
// and writes only the first 2^(n-1) entries of `amps` and `diag`.
//
// Passes over the state per layer: 1 for n <= kL2Qubits, 2 above —
// instead of n + 1 gate passes (a half state counts its stored qubits).
// Tile shapes follow n and the thread count only (no setting chooses
// them): each pass keeps at least as many tiles as threads where the
// state is big enough, so mid-size states still spread over the pool.
// For n <= kBlockQubits (the paper's n = 8) a layer is one sub-tile:
// phase plus mix_tile, inline on the caller.
//
// The contiguous inner loops of every pass run through the runtime-
// dispatched SIMD kernel table (quantum/simd_kernels.hpp): explicit
// AVX2 / AVX-512 code where the CPU has it, the original scalar loops
// otherwise.  The caller resolves the table (tier selection may read an
// environment variable) and passes it in, so a p-layer state build
// selects its tier once, not once per layer.
//
// Determinism: every amplitude sees the phase and then RX levels
// 0..n-1 in ascending order, each level the same rx_butterfly formula;
// the schedule only reorders independent pairs.  All dispatch tiers are
// bit-identical by construction, so results are bit-identical for every
// thread count, tile shape and SIMD tier.
#ifndef QAOAML_QUANTUM_FUSED_KERNELS_HPP
#define QAOAML_QUANTUM_FUSED_KERNELS_HPP

#include "quantum/complex.hpp"
#include "quantum/simd_kernels.hpp"

namespace qaoaml::quantum::fused {

/// Low qubits handled inside one L1-resident sub-tile: 2^11 amplitudes
/// = 32 KiB, sized to a typical L1d.
inline constexpr int kBlockQubits = 11;

/// Qubits of one L2-resident tile: 2^16 amplitudes = 1 MiB.
inline constexpr int kL2Qubits = 16;

/// What a layer reads: the current amplitudes, or the uniform
/// superposition 2^(-n/2), which its first pass writes tile by tile
/// (the buffer's previous contents are never read).
enum class LayerInput { kState, kUniform };

/// Which amplitudes a layer holds: all 2^n, or the 2^(n-1) with the top
/// bit clear of a Z2-symmetric state (n >= 2; see above).
enum class Storage { kFull, kMirrorHalf };

/// Fused layer over a general diagonal: amps[z] *= exp(-i*gamma*diag[z]),
/// then RX(beta) on every qubit.  `amps` and `diag` hold 2^num_qubits
/// entries (2^(num_qubits-1) for a half layer); the arrays must not
/// alias.  Every pass runs on `kernels`.
void apply_layer(Complex* amps, int num_qubits, const double* diag,
                 double gamma, double beta, int threads,
                 const simd::KernelTable& kernels,
                 LayerInput input = LayerInput::kState,
                 Storage storage = Storage::kFull);

/// Fused layer over an integer diagonal with a precomputed phase table:
/// amps[z] *= phases[diag[z]], then RX(beta) on every qubit.  Every
/// diag[z] must be a valid index into `phases` (callers validate).
void apply_layer_integral(Complex* amps, int num_qubits, const int* diag,
                          const Complex* phases, double beta, int threads,
                          const simd::KernelTable& kernels,
                          LayerInput input = LayerInput::kState,
                          Storage storage = Storage::kFull);

namespace detail {

/// apply_layer_integral with the sub-tile and tile sizes given
/// explicitly (2^l1_qubits and 2^l2_qubits amplitudes, 1 <= l1_qubits
/// <= l2_qubits) instead of kBlockQubits and kL2Qubits.  Test-only: it
/// lets small states exercise both passes, a leftover single level and,
/// in half storage, the pass-B column pairing.
void apply_layer_integral_tiled(Complex* amps, int num_qubits,
                                const int* diag, const Complex* phases,
                                double beta, int threads,
                                const simd::KernelTable& kernels,
                                int l1_qubits, int l2_qubits,
                                LayerInput input,
                                Storage storage = Storage::kFull);

}  // namespace detail

}  // namespace qaoaml::quantum::fused

#endif  // QAOAML_QUANTUM_FUSED_KERNELS_HPP
