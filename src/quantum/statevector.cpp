#include "quantum/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "quantum/fused_kernels.hpp"
#include "quantum/simd_kernels.hpp"

namespace qaoaml::quantum {
namespace {

inline int kernel_threads(std::size_t dim) {
  return dim >= kAmplitudeParallelDim ? default_thread_count() : 1;
}

void require_qubit_count(int num_qubits) {
  if (num_qubits < 1 || num_qubits > kMaxQubits) {
    throw InvalidArgument("Statevector: supports 1.." +
                          std::to_string(kMaxQubits) + " qubits");
  }
}

}  // namespace

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  require_qubit_count(num_qubits);
  // resize() leaves the buffer uninitialized (quantum/aligned.hpp), so
  // its first touch is the blocked parallel fill, not a serial one.
  amps_.resize(std::size_t{1} << num_qubits);
  fill(0, amps_.size(), Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

void Statevector::fill(std::size_t begin, std::size_t end, Complex value) {
  Complex* amps = amps_.data() + begin;
  parallel_for_range(
      end - begin,
      [&](std::size_t lo, std::size_t hi) {
        std::fill(amps + lo, amps + hi, value);
      },
      kernel_threads(amps_.size()));
}

Statevector Statevector::from_amplitudes(std::vector<Complex> amplitudes) {
  require(!amplitudes.empty(), "Statevector: empty amplitude vector");
  int qubits = 0;
  while ((std::size_t{1} << qubits) < amplitudes.size()) ++qubits;
  require(std::size_t{1} << qubits == amplitudes.size(),
          "Statevector: amplitude count must be a power of two");
  require(qubits >= 1, "Statevector: need at least one qubit");
  Statevector sv;
  sv.num_qubits_ = qubits;
  // Copy into the aligned allocator's storage: the public signature
  // stays std::vector, the internal buffer gains the 64-byte guarantee.
  sv.amps_.assign(amplitudes.begin(), amplitudes.end());
  return sv;
}

Statevector Statevector::uniform(int num_qubits) {
  require_qubit_count(num_qubits);
  Statevector sv;
  sv.num_qubits_ = num_qubits;
  const std::size_t dim = std::size_t{1} << num_qubits;
  sv.amps_.resize(dim);
  sv.fill(0, dim, Complex{1.0 / std::sqrt(static_cast<double>(dim)), 0.0});
  return sv;
}

/// Validates an integer diagonal before any amplitude is touched: the
/// length must equal the state dimension and every entry must index the
/// [0, max_value] phase table (an out-of-range entry would read past the
/// table — silent corruption in a fast path, so it is rejected loudly).
/// The entry scan is O(2^n); hot paths reusing one precomputed diagonal
/// skip it via scan_entries = false.
void Statevector::check_integral_diagonal(std::span<const int> diag,
                                          std::size_t expected_size,
                                          int max_value,
                                          bool scan_entries) const {
  require(diag.size() == expected_size,
          "Statevector: diagonal length must equal dimension");
  require(max_value >= 0, "Statevector: max_value must be non-negative");
  if (!scan_entries) return;
  const std::size_t bad = parallel_reduce(
      diag.size(), std::size_t{0},
      [&](std::size_t begin, std::size_t end) {
        std::size_t count = 0;
        for (std::size_t z = begin; z < end; ++z) {
          if (diag[z] < 0 || diag[z] > max_value) ++count;
        }
        return count;
      },
      kernel_threads(diag.size()));
  require(bad == 0,
          "Statevector: integral diagonal entry outside [0, max_value]");
}

/// phases[k] = exp(-i * k * angle) for k in [0, max_value]: only
/// max_value + 1 distinct phases.  The table is built in a per-thread
/// buffer that only grows, so a warm layer allocates nothing; the
/// pointer stays valid until this thread builds its next table.
static const Complex* integral_phase_table(double angle, int max_value) {
  thread_local std::vector<Complex> table;
  const std::size_t count = static_cast<std::size_t>(max_value) + 1;
  if (table.size() < count) table.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double phi = -angle * static_cast<double>(k);
    table[k] = Complex{std::cos(phi), std::sin(phi)};
  }
  return table.data();
}

void Statevector::apply_qaoa_layer(const std::vector<double>& diag,
                                   double gamma, double beta) {
  apply_qaoa_layer(diag, gamma, beta, simd::active_kernels());
}

/// A layer's diagonal must match the state; a uniform-input layer
/// instead gives the state the diagonal's dimension (nothing is kept).
void Statevector::size_for_layer(std::size_t diag_size, bool uniform_input) {
  if (!uniform_input) {
    require(diag_size == amps_.size(),
            "Statevector: diagonal length must equal dimension");
    return;
  }
  require(std::has_single_bit(diag_size),
          "Statevector: diagonal length must be a power of two");
  const int qubits = std::countr_zero(diag_size);
  require_qubit_count(qubits);
  num_qubits_ = qubits;
  if (amps_.size() != diag_size) amps_.resize(diag_size);
}

void Statevector::apply_qaoa_layer(const std::vector<double>& diag,
                                   double gamma, double beta,
                                   const simd::KernelTable& kernels,
                                   bool uniform_input) {
  size_for_layer(diag.size(), uniform_input);
  fused::apply_layer(amps_.data(), num_qubits_, diag.data(), gamma, beta,
                     kernel_threads(amps_.size()), kernels,
                     uniform_input ? fused::LayerInput::kUniform
                                   : fused::LayerInput::kState);
}

void Statevector::apply_qaoa_layer_integral(const std::vector<int>& diag,
                                            double gamma, int max_value,
                                            double beta,
                                            bool entries_prevalidated) {
  apply_qaoa_layer_integral(diag, gamma, max_value, beta,
                            entries_prevalidated, simd::active_kernels());
}

void Statevector::apply_qaoa_layer_integral(
    const std::vector<int>& diag, double gamma, int max_value, double beta,
    bool entries_prevalidated, const simd::KernelTable& kernels,
    bool uniform_input) {
  size_for_layer(diag.size(), uniform_input);
  check_integral_diagonal(diag, amps_.size(), max_value,
                          !entries_prevalidated);
  fused::apply_layer_integral(amps_.data(), num_qubits_, diag.data(),
                              integral_phase_table(gamma, max_value), beta,
                              kernel_threads(amps_.size()), kernels,
                              uniform_input ? fused::LayerInput::kUniform
                                            : fused::LayerInput::kState);
}

void Statevector::apply_qaoa_layer_mirrored(std::span<const double> half_diag,
                                            double gamma, double beta,
                                            const simd::KernelTable& kernels,
                                            bool uniform_input) {
  size_for_mirrored_layer(half_diag.size(), uniform_input);
  fused::apply_layer(amps_.data(), num_qubits_, half_diag.data(), gamma, beta,
                     kernel_threads(amps_.size()), kernels,
                     uniform_input ? fused::LayerInput::kUniform
                                   : fused::LayerInput::kState,
                     fused::Storage::kMirrorHalf);
}

void Statevector::apply_qaoa_layer_integral_mirrored(
    std::span<const int> half_diag, double gamma, int max_value, double beta,
    bool entries_prevalidated, const simd::KernelTable& kernels,
    bool uniform_input) {
  size_for_mirrored_layer(half_diag.size(), uniform_input);
  check_integral_diagonal(half_diag, amps_.size() / 2, max_value,
                          !entries_prevalidated);
  fused::apply_layer_integral(amps_.data(), num_qubits_, half_diag.data(),
                              integral_phase_table(gamma, max_value), beta,
                              kernel_threads(amps_.size()), kernels,
                              uniform_input ? fused::LayerInput::kUniform
                                            : fused::LayerInput::kState,
                              fused::Storage::kMirrorHalf);
}

/// A half layer needs n >= 2: below that the mirror level would pair an
/// amplitude with itself.
void Statevector::size_for_mirrored_layer(std::size_t half_size,
                                          bool uniform_input) {
  require(half_size >= 2,
          "Statevector: a mirrored layer needs at least two qubits");
  const bool resized = amps_.size() != 2 * half_size;
  size_for_layer(2 * half_size, uniform_input);
  // A grown buffer is uninitialized and no half layer writes its upper
  // half: give it a value until expand_mirror() does.
  if (resized) fill(half_size, 2 * half_size, Complex{0.0, 0.0});
}

void Statevector::expand_mirror() {
  require(num_qubits_ >= 2,
          "Statevector: a mirrored state needs at least two qubits");
  const std::size_t dim = amps_.size();
  Complex* amps = amps_.data();
  // a(~z) = a(z), and ~z = dim - 1 - z: the upper half is the lower half
  // reversed.
  parallel_for_range(
      dim / 2,
      [&](std::size_t begin, std::size_t end) {
        std::reverse_copy(amps + begin, amps + end, amps + (dim - end));
      },
      kernel_threads(dim));
}

std::vector<double> Statevector::probabilities() const {
  const std::size_t dim = amps_.size();
  std::vector<double> probs(dim);
  parallel_for_range(
      dim,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t z = begin; z < end; ++z) probs[z] = std::norm(amps_[z]);
      },
      kernel_threads(dim));
  return probs;
}

double Statevector::expectation_diagonal(const std::vector<double>& diag) const {
  require(diag.size() == amps_.size(),
          "Statevector: diagonal length must equal dimension");
  const std::size_t dim = amps_.size();
  const simd::KernelTable& kt = simd::active_kernels();
  // Block partials use the canonical 8-lane tree inside the dispatched
  // kernel and are combined in block order by parallel_reduce, so the
  // result is bit-identical for every thread count and SIMD tier.
  return parallel_reduce(
      dim, 0.0,
      [&](std::size_t begin, std::size_t end) {
        return simd::expectation_block(kt, amps_.data() + begin,
                                       diag.data() + begin, end - begin);
      },
      kernel_threads(dim));
}

double Statevector::expectation_diagonal_mirrored(
    std::span<const double> half_diag) const {
  const std::size_t half = half_diag.size();
  require(2 * half == amps_.size() && num_qubits_ >= 2,
          "Statevector: half diagonal length must be half the dimension");
  const simd::KernelTable& kt = simd::active_kernels();
  const Complex* amps = amps_.data();
  const double* diag = half_diag.data();
  // The blocks, lanes and block order of expectation_diagonal over all
  // 2^n indices.  The term of an upper index z is that of its mirror
  // dim-1-z (a and d agree there bit for bit), so an upper block is its
  // mirror block, a lower one, read reversed.
  if (2 * half <= kParallelGrain) {
    // One block: the upper half's term z lands in lane z % 8, which is
    // (half + k) % 8 for its k-th term; for half >= 8 that is lane k % 8,
    // below it lane half + k (expectation_lanes touches only the lanes
    // it fills).
    double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    kt.expectation_lanes(lane, amps, diag, half);
    kt.expectation_lanes_reversed(lane + half % 8, amps, diag, half);
    // parallel_reduce's single-block result: init + block sum.
    return 0.0 + simd::combine_lanes(lane);
  }
  // Lower block b and upper block blocks-1-b read the same memory, so
  // one task sums both while it is cache-hot; the partials then add in
  // block order, as parallel_reduce does.
  const std::size_t blocks = 2 * half / kParallelGrain;
  std::vector<double> partial(blocks);
  parallel_for(
      blocks / 2,
      [&](std::size_t b) {
        const Complex* a = amps + b * kParallelGrain;
        const double* d = diag + b * kParallelGrain;
        partial[b] = simd::expectation_block(kt, a, d, kParallelGrain);
        double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        kt.expectation_lanes_reversed(lane, a, d, kParallelGrain);
        partial[blocks - 1 - b] = simd::combine_lanes(lane);
      },
      kernel_threads(amps_.size()));
  double acc = 0.0;
  for (const double p : partial) acc += p;
  return acc;
}

void Statevector::cumulative_probabilities(std::vector<double>& cdf) const {
  const std::size_t dim = amps_.size();
  cdf.resize(dim);
  const std::size_t blocks = (dim + kParallelGrain - 1) / kParallelGrain;
  if (blocks <= 1) {
    // Serial left-to-right accumulation, the same bits for every thread
    // count.  Every committed sampled fixture lives in this regime, so
    // the blocked path below can never move their bits.
    double acc = 0.0;
    for (std::size_t z = 0; z < dim; ++z) {
      acc += std::norm(amps_[z]);
      cdf[z] = acc;
    }
    return;
  }
  // Blocked three-pass scan over the fixed kParallelGrain partition.
  // The passes iterate explicit BLOCK indices through parallel_for, not
  // parallel_for_range: the latter's single-thread fast path hands the
  // body one range covering everything, which would silently turn pass 1
  // into a global prefix at QAOAML_THREADS=1 and a per-block prefix at
  // =8 — different bits.  With the partition fixed here, the summation
  // structure depends only on the block layout, so the bits are
  // deterministic for every thread count, and one large-n evaluation
  // parallelizes its CDF build instead of serializing ~2^n additions.
  const int threads = kernel_threads(dim);
  // Pass 1: local prefix sums within each block, in parallel.
  parallel_for(
      blocks,
      [&](std::size_t b) {
        const std::size_t begin = b * kParallelGrain;
        const std::size_t end = std::min(dim, begin + kParallelGrain);
        double acc = 0.0;
        for (std::size_t z = begin; z < end; ++z) {
          acc += std::norm(amps_[z]);
          cdf[z] = acc;
        }
      },
      threads);
  // Pass 2: serial scan of the block totals into starting offsets.
  std::vector<double> offset(blocks);
  double acc = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    offset[b] = acc;
    const std::size_t last = std::min(dim, (b + 1) * kParallelGrain) - 1;
    acc += cdf[last];
  }
  // Pass 3: shift each block by its offset, in parallel.  Block 0 keeps
  // its exact pass-1 bits — its offset is zero by construction.
  parallel_for(
      blocks - 1,
      [&](std::size_t i) {
        const std::size_t b = i + 1;
        const std::size_t begin = b * kParallelGrain;
        const std::size_t end = std::min(dim, begin + kParallelGrain);
        const double off = offset[b];
        for (std::size_t z = begin; z < end; ++z) cdf[z] += off;
      },
      threads);
}

std::uint64_t Statevector::sample_cdf(const std::vector<double>& cdf,
                                      double u) {
  require(!cdf.empty(), "Statevector::sample_cdf: empty CDF");
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  // Numerical slack: cdf.back() can fall a few ulps short of 1, so a
  // draw past it lands on the last state.
  if (it == cdf.end()) return cdf.size() - 1;
  return static_cast<std::uint64_t>(it - cdf.begin());
}

}  // namespace qaoaml::quantum
