#include "quantum/fused_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/parallel.hpp"
#include "quantum/simd_kernels.hpp"

namespace qaoaml::quantum::fused {
namespace {

/// Tile geometry of one layer, as log2 amplitude counts.
struct TileShape {
  int sub;     ///< L1 sub-tile: the mix_tile levels 0..sub-1
  int tile;    ///< pass-A tile: levels sub..tile-1 run over rows in it
  int column;  ///< pass-B slice of each 2^tile row: levels tile..n-1
};

/// Pass A keeps at least `threads` tiles while the tile stays at least
/// one sub-tile; pass B keeps at least `threads` tasks and about 2^l2
/// amplitudes per task, but rows of at least 2^(l2-8) amplitudes (4 KiB
/// by default): at 26 qubits, 1 KiB rows made a layer 1.4x slower than
/// 4 KiB rows in a 4 MiB tile, since short rows leave the hardware
/// prefetcher too little to stream.  A half-state task holds two column
/// tiles (`paired`), so each is half as wide.  Bits never depend on the
/// shape.
TileShape tile_shape(int num_qubits, int threads, int l1, int l2,
                     bool paired) {
  int spread = 0;  // tile-index bits that give every thread a tile
  while ((1 << spread) < threads) ++spread;
  const int sub = std::min(num_qubits, l1);
  const int tile = std::max(sub, std::min({num_qubits, l2, num_qubits - spread}));
  const int high = num_qubits - tile;
  const int pair = paired ? 1 : 0;
  const int column = std::max(
      0, std::min(tile - spread - pair, std::max(l2 - pair - high, l2 - 8)));
  return {sub, tile, column};
}

/// RX levels over the 2^levels rows of one tile: `len` amplitudes per
/// row, rows `stride` apart.  Row level j pairs row r with row r + 2^j
/// (bit j of r clear); it is qubit log2(stride) + j.  Levels ascend, two
/// per sweep over the rows (butterfly_quad), the last alone when
/// `levels` is odd (butterfly_pair).  Rows adjacent in memory (stride ==
/// len) merge into one run per butterfly group.
void mix_rows(Complex* rows, std::size_t len, std::size_t stride, int levels,
              double c, double s, const simd::KernelTable& kt) {
  const std::size_t count = std::size_t{1} << levels;
  for (int j = 0; j < levels; j += 2) {
    const bool quad = j + 1 < levels;
    const std::size_t half = std::size_t{1} << j;  // rows between partners
    const std::size_t group = (quad ? 4 : 2) * half;
    const std::size_t gap = half * stride;
    const std::size_t runs = stride == len ? 1 : half;
    const std::size_t run = stride == len ? half * len : len;
    for (std::size_t g = 0; g < count; g += group) {
      for (std::size_t r = 0; r < runs; ++r) {
        Complex* p0 = rows + (g + r) * stride;
        if (quad) {
          kt.butterfly_quad(p0, p0 + gap, p0 + 2 * gap, p0 + 3 * gap, run, c,
                            s);
        } else {
          kt.butterfly_pair(p0, p0 + gap, run, c, s);
        }
      }
    }
  }
}

/// The mirror level over pass B's rows (`len` amplitudes each, `stride`
/// apart): row r of the column at `lo` pairs with row rows-1-r of the
/// column at `hi`, read reversed.  When both are the same column, only
/// its first half of rows runs.
void mirror_rows(Complex* lo, Complex* hi, std::size_t rows, std::size_t len,
                 std::size_t stride, double c, double s,
                 const simd::KernelTable& kt) {
  const std::size_t count = lo == hi ? rows / 2 : rows;
  for (std::size_t r = 0; r < count; ++r) {
    kt.butterfly_mirror(lo + r * stride, hi + (rows - 1 - r) * stride, len, c,
                        s);
  }
}

/// The layer on an explicit tile geometry; `phase(lo, hi)` applies the
/// diagonal phase to amplitudes [lo, hi).
template <typename Phase>
void apply_layer_impl(Complex* amps, int num_qubits, double beta, int threads,
                      const simd::KernelTable& kt, int l1, int l2,
                      LayerInput input, Storage storage, Phase&& phase) {
  const bool half = storage == Storage::kMirrorHalf;
  // The mixer levels below the mirror level run on the stored qubits as
  // on a full state of that size.
  const int stored = half ? num_qubits - 1 : num_qubits;
  const TileShape shape = tile_shape(stored, threads, l1, l2, half);
  const double c = std::cos(beta / 2.0);
  const double s = std::sin(beta / 2.0);
  const std::size_t sub_size = std::size_t{1} << shape.sub;
  const std::size_t tile_size = std::size_t{1} << shape.tile;
  const bool uniform = input == LayerInput::kUniform;
  // The uniform start's value, written where the layer first touches it.
  const Complex start{
      1.0 / std::sqrt(static_cast<double>(std::size_t{1} << num_qubits)), 0.0};
  const int high = stored - shape.tile;

  // Pass A: phase + levels 0..sub-1 per sub-tile, then sub..tile-1.
  // Without a pass B the tile is the whole stored state, and a half
  // state's mirror level runs right after it.
  parallel_for(
      std::size_t{1} << high,
      [&](std::size_t t) {
        Complex* tile = amps + t * tile_size;
        for (std::size_t lo = t * tile_size; lo < (t + 1) * tile_size;
             lo += sub_size) {
          if (uniform) std::fill(amps + lo, amps + lo + sub_size, start);
          phase(lo, lo + sub_size);
          kt.mix_tile(amps + lo, shape.sub, c, s);
        }
        mix_rows(tile, sub_size, sub_size, shape.tile - shape.sub, c, s, kt);
        if (half && high == 0) {
          kt.butterfly_mirror(tile, tile + tile_size / 2, tile_size / 2, c, s);
        }
      },
      threads);
  if (high == 0) return;

  // Pass B: levels tile..n-1 over column tiles of the 2^tile-wide rows.
  // A half state's mirror pairs column k with column K-1-k (row r with
  // row rows-1-r, reversed), so one task takes both columns of a pair.
  const std::size_t column = std::size_t{1} << shape.column;
  const std::size_t columns = tile_size / column;
  parallel_for(
      half ? std::max<std::size_t>(1, columns / 2) : columns,
      [&](std::size_t k) {
        Complex* lo = amps + k * column;
        mix_rows(lo, column, tile_size, high, c, s, kt);
        if (!half) return;
        Complex* hi = amps + (columns - 1 - k) * column;
        if (hi != lo) mix_rows(hi, column, tile_size, high, c, s, kt);
        mirror_rows(lo, hi, std::size_t{1} << high, column, tile_size, c, s,
                    kt);
      },
      threads);
}

}  // namespace

void apply_layer(Complex* amps, int num_qubits, const double* diag,
                 double gamma, double beta, int threads,
                 const simd::KernelTable& kt, LayerInput input,
                 Storage storage) {
  apply_layer_impl(amps, num_qubits, beta, threads, kt, kBlockQubits,
                   kL2Qubits, input, storage,
                   [&](std::size_t lo, std::size_t hi) {
                     kt.phase_general(amps + lo, diag + lo, gamma, hi - lo);
                   });
}

void apply_layer_integral(Complex* amps, int num_qubits, const int* diag,
                          const Complex* phases, double beta, int threads,
                          const simd::KernelTable& kt, LayerInput input,
                          Storage storage) {
  detail::apply_layer_integral_tiled(amps, num_qubits, diag, phases, beta,
                                     threads, kt, kBlockQubits, kL2Qubits,
                                     input, storage);
}

namespace detail {

void apply_layer_integral_tiled(Complex* amps, int num_qubits,
                                const int* diag, const Complex* phases,
                                double beta, int threads,
                                const simd::KernelTable& kt, int l1_qubits,
                                int l2_qubits, LayerInput input,
                                Storage storage) {
  apply_layer_impl(amps, num_qubits, beta, threads, kt, l1_qubits, l2_qubits,
                   input, storage, [&](std::size_t lo, std::size_t hi) {
                     kt.phase_integral(amps + lo, diag + lo, phases, hi - lo);
                   });
}

}  // namespace detail

}  // namespace qaoaml::quantum::fused
