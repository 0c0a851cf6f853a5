#include "quantum/fused_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/parallel.hpp"
#include "quantum/kernel_util.hpp"
#include "quantum/simd_kernels.hpp"

namespace qaoaml::quantum::fused {
namespace {

// Parallel grain blocks must contain whole sweep-1 tiles, so tile loops
// never straddle a range boundary.
static_assert(kBlockQubits <= kParallelGrainLog2,
              "sweep-1 tiles must divide a parallel grain block");

/// Sweep 1: phase + low-qubit mixer, tile by tile.  `phase_tile(lo, hi)`
/// applies the diagonal phase to amplitudes [lo, hi); the tile is then
/// still L1-hot for the butterfly levels.
template <typename PhaseTile>
void sweep_low(Complex* amps, std::size_t dim, int m, double c, double s,
               int threads, const simd::KernelTable& kt,
               PhaseTile&& phase_tile) {
  const std::size_t tile_size = std::size_t{1} << m;
  parallel_for_range(
      dim,
      [&](std::size_t begin, std::size_t end) {
        // Ranges are grain blocks of a power-of-two dimension, so they
        // hold whole tiles (static_assert above).
        for (std::size_t lo = begin; lo < end; lo += tile_size) {
          phase_tile(lo, lo + tile_size);
          kt.mix_tile(amps + lo, m, c, s);
        }
      },
      threads);
}

/// Sweep-2 pass fusing two adjacent high levels t and t+1: the RX (x) RX
/// butterfly over quadruples (i, i+s, i+2s, i+3s) with s = 2^t.  The
/// quadruple index k enumerates basis states with bits t and t+1 clear;
/// contiguous k runs of length s map to stride-1 runs in all four
/// streams.
void mix_high_pair(Complex* amps, std::size_t dim, int t, double c, double s,
                   int threads, const simd::KernelTable& kt) {
  const std::size_t stride = std::size_t{1} << t;
  parallel_for_range(
      dim / 4,
      [&](std::size_t begin, std::size_t end) {
        std::size_t k = begin;
        while (k < end) {
          const std::size_t low = k & (stride - 1);
          const std::size_t len = std::min(end - k, stride - low);
          Complex* p0 = amps + (((k >> t) << (t + 2)) | low);
          Complex* p1 = p0 + stride;
          Complex* p2 = p1 + stride;
          Complex* p3 = p2 + stride;
          kt.butterfly_quad(p0, p1, p2, p3, len, c, s);
          k += len;
        }
      },
      threads);
}

/// Sweep-2 pass for a single leftover high level t.
void mix_high_single(Complex* amps, std::size_t dim, int t, double c, double s,
                     int threads, const simd::KernelTable& kt) {
  const std::size_t stride = std::size_t{1} << t;
  parallel_for_range(
      dim / 2,
      [&](std::size_t begin, std::size_t end) {
        std::size_t k = begin;
        while (k < end) {
          const std::size_t low = k & (stride - 1);
          const std::size_t len = std::min(end - k, stride - low);
          Complex* p0 = amps + detail::pair_base(k, t, stride);
          Complex* p1 = p0 + stride;
          kt.butterfly_pair(p0, p1, len, c, s);
          k += len;
        }
      },
      threads);
}

/// Shared layer skeleton: every sweep runs on the caller's kernel table.
template <typename PhaseTile>
void apply_layer_impl(Complex* amps, int num_qubits, double beta, int threads,
                      const simd::KernelTable& kt, PhaseTile&& phase_tile) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  const int m = std::min(num_qubits, kBlockQubits);
  const double c = std::cos(beta / 2.0);
  const double s = std::sin(beta / 2.0);
  sweep_low(amps, dim, m, c, s, threads, kt, phase_tile);
  int t = m;
  for (; t + 1 < num_qubits; t += 2) {
    mix_high_pair(amps, dim, t, c, s, threads, kt);
  }
  if (t < num_qubits) mix_high_single(amps, dim, t, c, s, threads, kt);
}

}  // namespace

void apply_layer(Complex* amps, int num_qubits, const double* diag,
                 double gamma, double beta, int threads,
                 const simd::KernelTable& kt) {
  apply_layer_impl(amps, num_qubits, beta, threads, kt,
                   [&](std::size_t lo, std::size_t hi) {
                     kt.phase_general(amps + lo, diag + lo, gamma, hi - lo);
                   });
}

void apply_layer_integral(Complex* amps, int num_qubits, const int* diag,
                          const Complex* phases, double beta, int threads,
                          const simd::KernelTable& kt) {
  apply_layer_impl(amps, num_qubits, beta, threads, kt,
                   [&](std::size_t lo, std::size_t hi) {
                     kt.phase_integral(amps + lo, diag + lo, phases, hi - lo);
                   });
}

}  // namespace qaoaml::quantum::fused
