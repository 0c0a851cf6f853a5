// Dense statevector: the QAOA state and the kernels that build and read
// it.
//
// Stores all 2^n complex amplitudes.  Qubit q corresponds to bit q of
// the basis-state index (little-endian), so basis state |z> has qubit 0
// in the least-significant bit.  The state is built only by fused QAOA
// layers (quantum/fused_kernels.hpp) and read as <C>, probabilities or
// a sampling CDF.
//
// This is the "quantum computer" of the QAOA optimization loop, standing
// in for the paper's QuTiP backend: both produce the exact noiseless
// state and exact expectation values.
//
// Threading: every amplitude sweep (the layer passes, the fills, the
// expectation/probability/CDF reductions) fans out over blocked
// amplitude ranges once the state is large enough to amortize dispatch;
// small states stay serial.  Reductions sum fixed-size block partials
// in block order, so all results are bit-identical for every
// QAOAML_THREADS setting.  Individual Statevector objects are not
// internally synchronized: share them read-only or use one per thread.
#ifndef QAOAML_QUANTUM_STATEVECTOR_HPP
#define QAOAML_QUANTUM_STATEVECTOR_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "quantum/aligned.hpp"
#include "quantum/complex.hpp"

namespace qaoaml::quantum {

namespace simd {
struct KernelTable;
}  // namespace simd

/// Amplitude storage: a vector whose heap buffer is 64-byte aligned
/// (one cacheline / one AVX-512 vector) for the explicit SIMD kernels.
using AmpVector = std::vector<Complex, AlignedAllocator<Complex, kAmplitudeAlignment>>;

/// States at or above this dimension run the amplitude kernels on their
/// blocked parallel paths (fixed kParallelGrain blocks over the thread
/// pool); smaller states stay serial — the loops are too short to
/// amortize pool dispatch.  Exported so instance-level schedulers
/// (core/batch_evaluator.cpp) can tell which regime an evaluation is in
/// when choosing between batch-parallel and amplitude-parallel.
inline constexpr std::size_t kAmplitudeParallelDim = std::size_t{2} * kParallelGrain;

/// The largest state the simulator holds: 2^26 amplitudes, 1 GiB.  Every
/// size check on a problem that becomes a state (Statevector itself,
/// the MaxCutQaoa graph check, the serving decoder) uses this one bound.
inline constexpr int kMaxQubits = 26;

/// Dense n-qubit quantum state.
class Statevector {
 public:
  /// |0...0> on `num_qubits` qubits.  Requires
  /// 1 <= num_qubits <= kMaxQubits.
  explicit Statevector(int num_qubits);

  /// Builds a state from explicit amplitudes (length must be a power of
  /// two); the vector is not renormalized — callers own normalization.
  static Statevector from_amplitudes(std::vector<Complex> amplitudes);

  /// The uniform superposition H^n |0...0> — the QAOA input layer —
  /// constructed directly (every amplitude 2^(-n/2)).
  static Statevector uniform(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::size_t dimension() const { return amps_.size(); }

  /// The raw amplitudes; data() is kAmplitudeAlignment-byte aligned.
  const AmpVector& amplitudes() const { return amps_; }

  /// One fused QAOA layer: exp(-i * angle * C) for the diagonal cost C
  /// followed by the mixer RX(beta) on every qubit, in a few blocked
  /// sweeps instead of num_qubits + 1 gate passes (see
  /// quantum/fused_kernels.hpp).
  void apply_qaoa_layer(const std::vector<double>& diag, double gamma,
                        double beta);

  /// Fused layer for an integer-valued diagonal with entries in
  /// [0, max_value]: only max_value + 1 distinct phases occur, so they
  /// are precomputed once (a large win for unweighted MaxCut, where
  /// diag[z] is the cut size).  The diagonal length and the entry range
  /// are validated before any amplitude is touched; callers that apply
  /// one precomputed diagonal many times (e.g. once per QAOA layer per
  /// objective evaluation) may pass entries_prevalidated = true to skip
  /// the O(2^n) entry-range scan — length and max_value are still
  /// checked.
  void apply_qaoa_layer_integral(const std::vector<int>& diag, double gamma,
                                 int max_value, double beta,
                                 bool entries_prevalidated = false);

  /// The two layers above on a kernel table the caller resolved once
  /// (simd::active_kernels() may read QAOAML_SIMD), for loops that
  /// apply many layers.  Same bits as the overloads above on that tier.
  ///
  /// With `uniform_input` the layer starts a state build: the state
  /// first takes the diagonal's dimension (reusing the buffer when it
  /// matches) and the layer's input is the uniform superposition, which
  /// its first pass writes tile by tile — the same bits as the layer
  /// applied to uniform(), one pass over the state fewer.  The previous
  /// amplitudes are never read.
  void apply_qaoa_layer(const std::vector<double>& diag, double gamma,
                        double beta, const simd::KernelTable& kernels,
                        bool uniform_input = false);
  void apply_qaoa_layer_integral(const std::vector<int>& diag, double gamma,
                                 int max_value, double beta,
                                 bool entries_prevalidated,
                                 const simd::KernelTable& kernels,
                                 bool uniform_input = false);

  // Z2-symmetric half storage (see quantum/fused_kernels.hpp).  A state
  // built from the uniform start over a diagonal with d(z) == d(~z) bit
  // for bit (~z flips all n bits) keeps a(z) == a(~z) exactly.  The
  // *_mirrored calls hold only the amplitudes with the top bit clear, in
  // the first half of this n-qubit state's buffer, and read only the
  // lower half of the diagonal, `half_diag` = d(z) for z < 2^(n-1).  The
  // upper half of the buffer is not part of the state until
  // expand_mirror() writes it.  Each result is bit-identical to the
  // full-state call on the same symmetric diagonal.

  /// apply_qaoa_layer / apply_qaoa_layer_integral on the half state
  /// (n >= 2).  With `uniform_input` the state takes 2 * half_diag.size()
  /// amplitudes; otherwise its dimension must be that already.
  void apply_qaoa_layer_mirrored(std::span<const double> half_diag,
                                 double gamma, double beta,
                                 const simd::KernelTable& kernels,
                                 bool uniform_input = false);
  void apply_qaoa_layer_integral_mirrored(std::span<const int> half_diag,
                                          double gamma, int max_value,
                                          double beta,
                                          bool entries_prevalidated,
                                          const simd::KernelTable& kernels,
                                          bool uniform_input = false);

  /// expectation_diagonal of the whole symmetric state, read from the
  /// half: the same 2^n-index blocks and lane tree, with each upper
  /// block summed as its mirror block read reversed.
  double expectation_diagonal_mirrored(std::span<const double> half_diag) const;

  /// Writes the upper half from the lower one, a(~z) = a(z), so the
  /// buffer holds the full state.
  void expand_mirror();

  /// |amplitude|^2 for every basis state.
  std::vector<double> probabilities() const;

  /// <psi| diag |psi> for a diagonal observable.  Runs the dispatched
  /// SIMD reduction kernel over fixed-size blocks; the canonical 8-lane
  /// summation tree (quantum/simd_kernels.hpp) makes the result
  /// bit-identical across thread counts AND dispatch tiers.
  double expectation_diagonal(const std::vector<double>& diag) const;

  /// Writes the inclusive prefix sums of |amplitude|^2 into `cdf`
  /// (resized to the dimension, reusing its capacity).  States that fit
  /// in one parallel grain block use the plain serial scan; larger
  /// states use a blocked three-pass scan (per-block local prefixes in
  /// parallel, a serial block-offset scan, a parallel offset add) whose
  /// summation structure depends only on the fixed kParallelGrain
  /// partition.  Either way the bits are independent of QAOAML_THREADS
  /// and of the SIMD tier — this is the measurement-determinism anchor
  /// of CDF-inversion sampling.
  void cumulative_probabilities(std::vector<double>& cdf) const;

  /// Inverts a cumulative_probabilities() table at `u` in [0, 1):
  /// returns the first z with cdf[z] >= u (binary search, O(n) per
  /// shot), or the last state when u lies past cdf.back() (the sum of
  /// the probabilities can fall a few ulps short of 1).  This is how
  /// every sampled evaluation draws its shots, one uniform draw each.
  static std::uint64_t sample_cdf(const std::vector<double>& cdf, double u);

 private:
  Statevector() = default;
  void size_for_layer(std::size_t diag_size, bool uniform_input);
  void size_for_mirrored_layer(std::size_t half_size, bool uniform_input);
  /// amps_[begin, end) = value, in blocked parallel ranges.
  void fill(std::size_t begin, std::size_t end, Complex value);
  void check_integral_diagonal(std::span<const int> diag,
                               std::size_t expected_size, int max_value,
                               bool scan_entries) const;

  int num_qubits_ = 0;
  AmpVector amps_;
};

}  // namespace qaoaml::quantum

#endif  // QAOAML_QUANTUM_STATEVECTOR_HPP
