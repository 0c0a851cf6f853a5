// Per-tier kernel implementations.  See simd_kernels.hpp for the
// bit-identity contract every function here honors; the vector code
// annotates each deviation from the literal scalar op order with the
// exact IEEE identity that makes it bitwise safe.
//
// This translation unit must be compiled with FP contraction disabled
// (-ffp-contract=off, set in src/CMakeLists.txt): under -march=native
// the compiler would otherwise fuse the scalar mul+add sequences into
// FMAs, which round once instead of twice and would break bit-identity
// between the scalar tier and the explicit vector tiers.
#include "quantum/simd_kernels.hpp"

#include <cmath>
#include <cstddef>

#include "common/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QAOAML_SIMD_X86 1
#include <immintrin.h>
#else
#define QAOAML_SIMD_X86 0
#endif

namespace qaoaml::quantum::simd {
namespace {

/// amp *= (pr + i*pi), with the product expanded to avoid __muldc3
/// (GCC otherwise routes std::complex products through Annex G NaN
/// handling, which dominates the kernels' run time).
inline void multiply_amp(Complex& amp, double pr, double pi) {
  const double ar = amp.real();
  const double ai = amp.imag();
  amp = Complex{ar * pr - ai * pi, ar * pi + ai * pr};
}

// ---------------------------------------------------------------------------
// Scalar tier: the reference op sequences.  These are byte-for-byte the
// loops the fused kernels ran before dispatch existed (PR 2), so the
// scalar tier reproduces every committed fixture exactly.
// ---------------------------------------------------------------------------

/// RX(beta) butterfly with c = cos(beta/2), s = sin(beta/2):
///   a0' = c*a0 - i*s*a1,  a1' = -i*s*a0 + c*a1.
/// Expanded into real arithmetic (4 multiplies) so GCC does not call
/// __muldc3.
inline void rx_butterfly(Complex& amp0, Complex& amp1, double c, double s) {
  const double a0r = amp0.real(), a0i = amp0.imag();
  const double a1r = amp1.real(), a1i = amp1.imag();
  amp0 = Complex{c * a0r + s * a1i, c * a0i - s * a1r};
  amp1 = Complex{c * a1r + s * a0i, c * a1i - s * a0r};
}

void scalar_phase_general(Complex* amps, const double* diag, double gamma,
                          std::size_t count) {
  for (std::size_t z = 0; z < count; ++z) {
    const double phi = -gamma * diag[z];
    multiply_amp(amps[z], std::cos(phi), std::sin(phi));
  }
}

void scalar_phase_integral(Complex* amps, const int* diag,
                           const Complex* phases, std::size_t count) {
  for (std::size_t z = 0; z < count; ++z) {
    const Complex& p = phases[static_cast<std::size_t>(diag[z])];
    multiply_amp(amps[z], p.real(), p.imag());
  }
}

void scalar_mix_tile(Complex* tile, int m, double c, double s) {
  const std::size_t tile_size = std::size_t{1} << m;
  for (int t = 0; t < m; ++t) {
    const std::size_t stride = std::size_t{1} << t;
    for (std::size_t base = 0; base < tile_size; base += 2 * stride) {
      Complex* p0 = tile + base;
      Complex* p1 = p0 + stride;
      for (std::size_t j = 0; j < stride; ++j) {
        rx_butterfly(p0[j], p1[j], c, s);
      }
    }
  }
}

void scalar_butterfly_pair(Complex* p0, Complex* p1, std::size_t len, double c,
                           double s) {
  for (std::size_t j = 0; j < len; ++j) rx_butterfly(p0[j], p1[j], c, s);
}

void scalar_butterfly_quad(Complex* p0, Complex* p1, Complex* p2, Complex* p3,
                           std::size_t len, double c, double s) {
  for (std::size_t j = 0; j < len; ++j) {
    rx_butterfly(p0[j], p1[j], c, s);  // qubit t
    rx_butterfly(p2[j], p3[j], c, s);
    rx_butterfly(p0[j], p2[j], c, s);  // qubit t+1
    rx_butterfly(p1[j], p3[j], c, s);
  }
}

/// The mirror level of a half state: row p1 is read reversed.
void scalar_butterfly_mirror(Complex* p0, Complex* p1, std::size_t len,
                             double c, double s) {
  for (std::size_t j = 0; j < len; ++j) {
    rx_butterfly(p0[j], p1[len - 1 - j], c, s);
  }
}

/// One term of the <C> reduction: |amp|^2 * d.
inline double expectation_term(const Complex& amp, double d) {
  const double ar = amp.real();
  const double ai = amp.imag();
  return (ar * ar + ai * ai) * d;
}

/// The canonical 8-lane reduction (simd_kernels.hpp header comment).
/// The vector tiers run their tails through these same lines.
void scalar_expectation_lanes(double* lane, const Complex* amps,
                              const double* diag, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    lane[k % 8] += expectation_term(amps[k], diag[k]);
  }
}

void scalar_expectation_lanes_reversed(double* lane, const Complex* amps,
                                       const double* diag,
                                       std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t e = count - 1 - k;
    lane[k % 8] += expectation_term(amps[e], diag[e]);
  }
}

constexpr KernelTable scalar_table = {
    SimdTier::kScalar,       scalar_phase_general,
    scalar_phase_integral,   scalar_mix_tile,
    scalar_butterfly_pair,   scalar_butterfly_quad,
    scalar_butterfly_mirror, scalar_expectation_lanes,
    scalar_expectation_lanes_reversed,
};

#if QAOAML_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 tier: 2 amplitudes (4 doubles) per register.
//
// Amplitudes are interleaved [re, im]; a register holds [a0r, a0i, a1r,
// a1i].  The two bitwise-exact rewrites used throughout:
//  - IEEE subtraction is addition of the negated operand, so
//    x + (-y) == x - y and x - (-y) == x + y bit for bit;
//  - negation (sign-bit xor) and multiplication commute exactly:
//    (-s)*x == -(s*x).
// ---------------------------------------------------------------------------

/// [x0, x1, x2, x3] -> [x1, x0, x3, x2] (swap re/im within amplitudes).
__attribute__((target("avx2"))) inline __m256d avx2_swap_pairs(__m256d x) {
  return _mm256_permute_pd(x, 0x5);
}

/// amps[k] *= p[k] with pr = [p0r, p0r, p1r, p1r], pi = [p0i, p0i, p1i,
/// p1i]: re' = ar*pr - ai*pi, im' = ai*pr + ar*pi — the addsub realizes
/// exactly multiply_amp's (ar*pr - ai*pi, ar*pi + ai*pr) since IEEE
/// addition commutes bitwise.
__attribute__((target("avx2"))) inline __m256d avx2_complex_mul(__m256d v,
                                                                __m256d pr,
                                                                __m256d pi) {
  return _mm256_addsub_pd(_mm256_mul_pd(v, pr),
                          _mm256_mul_pd(avx2_swap_pairs(v), pi));
}

/// One side of the RX butterfly: c*self + rotate(other), where
/// rotate(a) = (s*ai, -(s*ar)) and s_alt = [s, -s, s, -s].  Even lanes
/// add s*other_i (same ops as scalar c*a0r + s*a1i); odd lanes add
/// (-s)*other_r == -(s*other_r), bitwise equal to the scalar
/// subtraction.
__attribute__((target("avx2"))) inline __m256d avx2_butterfly_side(
    __m256d self, __m256d other, __m256d c_vec, __m256d s_alt) {
  return _mm256_add_pd(_mm256_mul_pd(c_vec, self),
                       _mm256_mul_pd(s_alt, avx2_swap_pairs(other)));
}

__attribute__((target("avx2"))) void avx2_phase_general(Complex* amps,
                                                        const double* diag,
                                                        double gamma,
                                                        std::size_t count) {
  double* a = reinterpret_cast<double*>(amps);
  std::size_t z = 0;
  for (; z + 2 <= count; z += 2) {
    // libm cos/sin stay scalar on every tier (the bit-identity anchor);
    // only the complex multiply is vectorized.
    const double phi0 = -gamma * diag[z];
    const double phi1 = -gamma * diag[z + 1];
    const __m256d p = _mm256_set_pd(std::sin(phi1), std::cos(phi1),
                                    std::sin(phi0), std::cos(phi0));
    const __m256d pr = _mm256_movedup_pd(p);
    const __m256d pi = _mm256_permute_pd(p, 0xF);
    const __m256d v = _mm256_loadu_pd(a + 2 * z);
    _mm256_storeu_pd(a + 2 * z, avx2_complex_mul(v, pr, pi));
  }
  for (; z < count; ++z) {
    const double phi = -gamma * diag[z];
    multiply_amp(amps[z], std::cos(phi), std::sin(phi));
  }
}

__attribute__((target("avx2"))) void avx2_phase_integral(Complex* amps,
                                                         const int* diag,
                                                         const Complex* phases,
                                                         std::size_t count) {
  double* a = reinterpret_cast<double*>(amps);
  std::size_t z = 0;
  for (; z + 2 <= count; z += 2) {
    const __m128d q0 = _mm_loadu_pd(
        reinterpret_cast<const double*>(phases + diag[z]));
    const __m128d q1 = _mm_loadu_pd(
        reinterpret_cast<const double*>(phases + diag[z + 1]));
    const __m256d p = _mm256_set_m128d(q1, q0);
    const __m256d pr = _mm256_movedup_pd(p);
    const __m256d pi = _mm256_permute_pd(p, 0xF);
    const __m256d v = _mm256_loadu_pd(a + 2 * z);
    _mm256_storeu_pd(a + 2 * z, avx2_complex_mul(v, pr, pi));
  }
  for (; z < count; ++z) {
    const Complex& p = phases[static_cast<std::size_t>(diag[z])];
    multiply_amp(amps[z], p.real(), p.imag());
  }
}

/// One RX level over two register rows: (v0, v1) <- butterfly(v0, v1).
__attribute__((target("avx2"))) inline void avx2_radix2(
    __m256d& v0, __m256d& v1, __m256d c_vec, __m256d s_alt) {
  const __m256d w0 = avx2_butterfly_side(v0, v1, c_vec, s_alt);
  v1 = avx2_butterfly_side(v1, v0, c_vec, s_alt);
  v0 = w0;
}

/// Two RX levels over four register rows, in the scalar quad's order per
/// element: (0,1), (2,3) for level t, then (0,2), (1,3) for level t+1.
__attribute__((target("avx2"))) inline void avx2_radix4(
    __m256d& v0, __m256d& v1, __m256d& v2, __m256d& v3, __m256d c_vec,
    __m256d s_alt) {
  avx2_radix2(v0, v1, c_vec, s_alt);
  avx2_radix2(v2, v3, c_vec, s_alt);
  avx2_radix2(v0, v2, c_vec, s_alt);
  avx2_radix2(v1, v3, c_vec, s_alt);
}

/// Level t = 0 inside one register: the pair partner is the adjacent
/// amplitude.  With a = [a0r, a0i, a1r, a1i], reversing the quadwords
/// gives [a1i, a1r, a0i, a0r]; scaling by s and flipping the odd lanes
/// yields [s*a1i, -(s*a1r), s*a0i, -(s*a0r)] (as a product with s_alt),
/// and adding c*a lands exactly on the scalar butterfly outputs.
__attribute__((target("avx2"))) inline __m256d avx2_mix_in_register(
    __m256d v, __m256d c_vec, __m256d s_alt) {
  return _mm256_add_pd(_mm256_mul_pd(c_vec, v),
                       _mm256_mul_pd(s_alt, _mm256_permute4x64_pd(v, 0x1B)));
}

__attribute__((target("avx2"))) void avx2_butterfly_pair(Complex* p0,
                                                         Complex* p1,
                                                         std::size_t len,
                                                         double c, double s) {
  const __m256d c_vec = _mm256_set1_pd(c);
  const __m256d s_alt = _mm256_setr_pd(s, -s, s, -s);
  double* r0 = reinterpret_cast<double*>(p0);
  double* r1 = reinterpret_cast<double*>(p1);
  std::size_t j = 0;
  for (; j + 2 <= len; j += 2) {
    __m256d v0 = _mm256_loadu_pd(r0 + 2 * j);
    __m256d v1 = _mm256_loadu_pd(r1 + 2 * j);
    avx2_radix2(v0, v1, c_vec, s_alt);
    _mm256_storeu_pd(r0 + 2 * j, v0);
    _mm256_storeu_pd(r1 + 2 * j, v1);
  }
  for (; j < len; ++j) rx_butterfly(p0[j], p1[j], c, s);
}

__attribute__((target("avx2"))) void avx2_butterfly_quad(
    Complex* p0, Complex* p1, Complex* p2, Complex* p3, std::size_t len,
    double c, double s) {
  const __m256d c_vec = _mm256_set1_pd(c);
  const __m256d s_alt = _mm256_setr_pd(s, -s, s, -s);
  double* r0 = reinterpret_cast<double*>(p0);
  double* r1 = reinterpret_cast<double*>(p1);
  double* r2 = reinterpret_cast<double*>(p2);
  double* r3 = reinterpret_cast<double*>(p3);
  std::size_t j = 0;
  for (; j + 2 <= len; j += 2) {
    __m256d v0 = _mm256_loadu_pd(r0 + 2 * j);
    __m256d v1 = _mm256_loadu_pd(r1 + 2 * j);
    __m256d v2 = _mm256_loadu_pd(r2 + 2 * j);
    __m256d v3 = _mm256_loadu_pd(r3 + 2 * j);
    avx2_radix4(v0, v1, v2, v3, c_vec, s_alt);
    _mm256_storeu_pd(r0 + 2 * j, v0);
    _mm256_storeu_pd(r1 + 2 * j, v1);
    _mm256_storeu_pd(r2 + 2 * j, v2);
    _mm256_storeu_pd(r3 + 2 * j, v3);
  }
  for (; j < len; ++j) {
    rx_butterfly(p0[j], p1[j], c, s);
    rx_butterfly(p2[j], p3[j], c, s);
    rx_butterfly(p0[j], p2[j], c, s);
    rx_butterfly(p1[j], p3[j], c, s);
  }
}

/// mix_tile over register rows of 2 amplitudes (simd_kernels.hpp); the
/// row stride of level t >= 1 is 2^(t-1).
__attribute__((target("avx2"))) void avx2_mix_tile(Complex* tile, int m,
                                                   double c, double s) {
  if (m < 1) return;
  const __m256d c_vec = _mm256_set1_pd(c);
  const __m256d s_alt = _mm256_setr_pd(s, -s, s, -s);
  double* r = reinterpret_cast<double*>(tile);
  const std::size_t rows = std::size_t{1} << (m - 1);
  int t = 1;  // first level the passes below still have to apply
  if (m >= 3) {
    // Level 0 in-register, then levels 1 and 2 across four adjacent rows.
    for (std::size_t row = 0; row < rows; row += 4) {
      __m256d v0 = avx2_mix_in_register(_mm256_loadu_pd(r + 4 * row),
                                        c_vec, s_alt);
      __m256d v1 = avx2_mix_in_register(
          _mm256_loadu_pd(r + 4 * (row + 1)), c_vec, s_alt);
      __m256d v2 = avx2_mix_in_register(
          _mm256_loadu_pd(r + 4 * (row + 2)), c_vec, s_alt);
      __m256d v3 = avx2_mix_in_register(
          _mm256_loadu_pd(r + 4 * (row + 3)), c_vec, s_alt);
      avx2_radix4(v0, v1, v2, v3, c_vec, s_alt);
      _mm256_storeu_pd(r + 4 * row, v0);
      _mm256_storeu_pd(r + 4 * (row + 1), v1);
      _mm256_storeu_pd(r + 4 * (row + 2), v2);
      _mm256_storeu_pd(r + 4 * (row + 3), v3);
    }
    t = 3;
  } else {
    for (std::size_t row = 0; row < rows; ++row) {
      _mm256_storeu_pd(r + 4 * row,
                       avx2_mix_in_register(_mm256_loadu_pd(r + 4 * row),
                                            c_vec, s_alt));
    }
  }
  for (; t + 1 < m; t += 2) {
    const std::size_t stride = std::size_t{1} << (t - 1);
    for (std::size_t base = 0; base < rows; base += 4 * stride) {
      for (std::size_t row = base; row < base + stride; ++row) {
        double* q = r + 4 * row;
        const std::size_t step = 4 * stride;
        __m256d v0 = _mm256_loadu_pd(q);
        __m256d v1 = _mm256_loadu_pd(q + step);
        __m256d v2 = _mm256_loadu_pd(q + 2 * step);
        __m256d v3 = _mm256_loadu_pd(q + 3 * step);
        avx2_radix4(v0, v1, v2, v3, c_vec, s_alt);
        _mm256_storeu_pd(q, v0);
        _mm256_storeu_pd(q + step, v1);
        _mm256_storeu_pd(q + 2 * step, v2);
        _mm256_storeu_pd(q + 3 * step, v3);
      }
    }
  }
  if (t < m) {
    const std::size_t stride = std::size_t{1} << (t - 1);
    for (std::size_t base = 0; base < rows; base += 2 * stride) {
      for (std::size_t row = base; row < base + stride; ++row) {
        double* q = r + 4 * row;
        __m256d v0 = _mm256_loadu_pd(q);
        __m256d v1 = _mm256_loadu_pd(q + 4 * stride);
        avx2_radix2(v0, v1, c_vec, s_alt);
        _mm256_storeu_pd(q, v0);
        _mm256_storeu_pd(q + 4 * stride, v1);
      }
    }
  }
}

/// [x0, x1, x2, x3] -> [x2, x3, x0, x1]: the two amplitudes of a
/// register in reverse order.
__attribute__((target("avx2"))) inline __m256d avx2_reverse_amps(__m256d x) {
  return _mm256_permute4x64_pd(x, 0x4E);
}

__attribute__((target("avx2"))) void avx2_butterfly_mirror(Complex* p0,
                                                           Complex* p1,
                                                           std::size_t len,
                                                           double c,
                                                           double s) {
  const __m256d c_vec = _mm256_set1_pd(c);
  const __m256d s_alt = _mm256_setr_pd(s, -s, s, -s);
  double* r0 = reinterpret_cast<double*>(p0);
  double* r1 = reinterpret_cast<double*>(p1);
  std::size_t j = 0;
  for (; j + 2 <= len; j += 2) {
    // p1[len-1-j], p1[len-2-j]: the partners of p0[j], p0[j+1].
    double* q = r1 + 2 * (len - 2 - j);
    __m256d v0 = _mm256_loadu_pd(r0 + 2 * j);
    __m256d v1 = avx2_reverse_amps(_mm256_loadu_pd(q));
    avx2_radix2(v0, v1, c_vec, s_alt);
    _mm256_storeu_pd(r0 + 2 * j, v0);
    _mm256_storeu_pd(q, avx2_reverse_amps(v1));
  }
  for (; j < len; ++j) rx_butterfly(p0[j], p1[len - 1 - j], c, s);
}

/// The canonical lanes of eight terms n0..n7 (norms) times d0..d7 are
/// kept as acc_lo = lanes [0, 2, 1, 3] and acc_hi = lanes [4, 6, 5, 7],
/// the order _mm256_hadd_pd leaves the norms in.
__attribute__((target("avx2"))) inline void avx2_expectation_step(
    __m256d a01, __m256d a23, __m256d a45, __m256d a67, __m256d d0123,
    __m256d d4567, __m256d& acc_lo, __m256d& acc_hi) {
  // hadd([ar0^2, ai0^2, ar1^2, ai1^2], [ar2^2, ...]) = [n0, n2, n1, n3];
  // permuting the diagonal into the same order (imm 0xD8 selects
  // [d0, d2, d1, d3]) keeps term z multiplied by diag[z].
  const __m256d n0213 =
      _mm256_hadd_pd(_mm256_mul_pd(a01, a01), _mm256_mul_pd(a23, a23));
  const __m256d n4657 =
      _mm256_hadd_pd(_mm256_mul_pd(a45, a45), _mm256_mul_pd(a67, a67));
  const __m256d d0213 = _mm256_permute4x64_pd(d0123, 0xD8);
  const __m256d d4657 = _mm256_permute4x64_pd(d4567, 0xD8);
  acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(n0213, d0213));
  acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(n4657, d4657));
}

/// Lanes [0..8) into avx2_expectation_step's register order, and back.
__attribute__((target("avx2"))) inline void avx2_load_lanes(
    const double* lane, __m256d& acc_lo, __m256d& acc_hi) {
  acc_lo = _mm256_setr_pd(lane[0], lane[2], lane[1], lane[3]);
  acc_hi = _mm256_setr_pd(lane[4], lane[6], lane[5], lane[7]);
}

__attribute__((target("avx2"))) inline void avx2_store_lanes(
    double* lane, __m256d acc_lo, __m256d acc_hi) {
  double lo[4], hi[4];
  _mm256_storeu_pd(lo, acc_lo);
  _mm256_storeu_pd(hi, acc_hi);
  lane[0] = lo[0], lane[2] = lo[1], lane[1] = lo[2], lane[3] = lo[3];
  lane[4] = hi[0], lane[6] = hi[1], lane[5] = hi[2], lane[7] = hi[3];
}

__attribute__((target("avx2"))) void avx2_expectation_lanes(
    double* lane, const Complex* amps, const double* diag, std::size_t count) {
  const double* a = reinterpret_cast<const double*>(amps);
  std::size_t k = 0;
  if (count >= 8) {
    __m256d acc_lo, acc_hi;
    avx2_load_lanes(lane, acc_lo, acc_hi);
    for (; k + 8 <= count; k += 8) {
      avx2_expectation_step(
          _mm256_loadu_pd(a + 2 * k), _mm256_loadu_pd(a + 2 * k + 4),
          _mm256_loadu_pd(a + 2 * k + 8), _mm256_loadu_pd(a + 2 * k + 12),
          _mm256_loadu_pd(diag + k), _mm256_loadu_pd(diag + k + 4), acc_lo,
          acc_hi);
    }
    avx2_store_lanes(lane, acc_lo, acc_hi);
  }
  // k is a multiple of 8, so term k + j still lands in lane j % 8.
  scalar_expectation_lanes(lane, amps + k, diag + k, count - k);
}

__attribute__((target("avx2"))) void avx2_expectation_lanes_reversed(
    double* lane, const Complex* amps, const double* diag, std::size_t count) {
  const double* a = reinterpret_cast<const double*>(amps);
  std::size_t k = 0;
  if (count >= 8) {
    __m256d acc_lo, acc_hi;
    avx2_load_lanes(lane, acc_lo, acc_hi);
    for (; k + 8 <= count; k += 8) {
      // Terms k..k+7 are the elements base+7 down to base: the forward
      // step on the group with its amplitudes and its diagonal reversed
      // (imm 0x1B reverses four doubles).
      const std::size_t base = count - 8 - k;
      avx2_expectation_step(
          avx2_reverse_amps(_mm256_loadu_pd(a + 2 * base + 12)),
          avx2_reverse_amps(_mm256_loadu_pd(a + 2 * base + 8)),
          avx2_reverse_amps(_mm256_loadu_pd(a + 2 * base + 4)),
          avx2_reverse_amps(_mm256_loadu_pd(a + 2 * base)),
          _mm256_permute4x64_pd(_mm256_loadu_pd(diag + base + 4), 0x1B),
          _mm256_permute4x64_pd(_mm256_loadu_pd(diag + base), 0x1B), acc_lo,
          acc_hi);
    }
    avx2_store_lanes(lane, acc_lo, acc_hi);
  }
  // The remaining terms read elements count-k-1 down to 0.
  scalar_expectation_lanes_reversed(lane, amps, diag, count - k);
}

const KernelTable avx2_table = {
    SimdTier::kAvx2,       avx2_phase_general,
    avx2_phase_integral,   avx2_mix_tile,
    avx2_butterfly_pair,   avx2_butterfly_quad,
    avx2_butterfly_mirror, avx2_expectation_lanes,
    avx2_expectation_lanes_reversed,
};

// ---------------------------------------------------------------------------
// AVX-512 tier: 4 amplitudes (8 doubles) per register.
//
// AVX-512 has no addsub, so the scalar subtractions become xor of the
// sign bit followed by add — bitwise the same operation.  The packed-
// double xor (_mm512_xor_pd) is AVX512DQ, which is why the dispatcher
// gates this tier on F+DQ.  Remainders fall through a 2-amplitude
// 256-bit step and then the scalar loop, all bit-identical, covering
// every odd/short length the property sweeps throw at the tier.
// ---------------------------------------------------------------------------

#define QAOAML_AVX512_TARGET target("avx512f,avx512dq,avx2")

__attribute__((QAOAML_AVX512_TARGET)) inline __m512d avx512_swap_pairs(
    __m512d x) {
  return _mm512_permute_pd(x, 0x55);
}

/// [s, -s, s, -s, ...]: the butterfly sine with the imaginary lanes
/// negated (see avx2_butterfly_side).
__attribute__((QAOAML_AVX512_TARGET)) inline __m512d avx512_signed_sine(
    double s) {
  return _mm512_setr_pd(s, -s, s, -s, s, -s, s, -s);
}

__attribute__((QAOAML_AVX512_TARGET)) inline __m512d avx512_even_neg() {
  return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}

/// addsub emulation: even lanes x - y (as x + (-y)), odd lanes x + y.
__attribute__((QAOAML_AVX512_TARGET)) inline __m512d avx512_complex_mul(
    __m512d v, __m512d pr, __m512d pi) {
  return _mm512_add_pd(
      _mm512_mul_pd(v, pr),
      _mm512_xor_pd(_mm512_mul_pd(avx512_swap_pairs(v), pi),
                    avx512_even_neg()));
}

__attribute__((QAOAML_AVX512_TARGET)) inline __m512d avx512_butterfly_side(
    __m512d self, __m512d other, __m512d c_vec, __m512d s_alt) {
  return _mm512_add_pd(_mm512_mul_pd(c_vec, self),
                       _mm512_mul_pd(s_alt, avx512_swap_pairs(other)));
}

__attribute__((QAOAML_AVX512_TARGET)) void avx512_phase_general(
    Complex* amps, const double* diag, double gamma, std::size_t count) {
  double* a = reinterpret_cast<double*>(amps);
  std::size_t z = 0;
  for (; z + 4 <= count; z += 4) {
    const double phi0 = -gamma * diag[z];
    const double phi1 = -gamma * diag[z + 1];
    const double phi2 = -gamma * diag[z + 2];
    const double phi3 = -gamma * diag[z + 3];
    const __m512d p = _mm512_set_pd(std::sin(phi3), std::cos(phi3),
                                    std::sin(phi2), std::cos(phi2),
                                    std::sin(phi1), std::cos(phi1),
                                    std::sin(phi0), std::cos(phi0));
    const __m512d pr = _mm512_movedup_pd(p);
    const __m512d pi = _mm512_permute_pd(p, 0xFF);
    const __m512d v = _mm512_loadu_pd(a + 2 * z);
    _mm512_storeu_pd(a + 2 * z, avx512_complex_mul(v, pr, pi));
  }
  for (; z < count; ++z) {
    const double phi = -gamma * diag[z];
    multiply_amp(amps[z], std::cos(phi), std::sin(phi));
  }
}

__attribute__((QAOAML_AVX512_TARGET)) void avx512_phase_integral(
    Complex* amps, const int* diag, const Complex* phases,
    std::size_t count) {
  double* a = reinterpret_cast<double*>(amps);
  std::size_t z = 0;
  for (; z + 4 <= count; z += 4) {
    const __m128d q0 = _mm_loadu_pd(
        reinterpret_cast<const double*>(phases + diag[z]));
    const __m128d q1 = _mm_loadu_pd(
        reinterpret_cast<const double*>(phases + diag[z + 1]));
    const __m128d q2 = _mm_loadu_pd(
        reinterpret_cast<const double*>(phases + diag[z + 2]));
    const __m128d q3 = _mm_loadu_pd(
        reinterpret_cast<const double*>(phases + diag[z + 3]));
    const __m512d p = _mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_set_m128d(q1, q0)),
        _mm256_set_m128d(q3, q2), 1);
    const __m512d pr = _mm512_movedup_pd(p);
    const __m512d pi = _mm512_permute_pd(p, 0xFF);
    const __m512d v = _mm512_loadu_pd(a + 2 * z);
    _mm512_storeu_pd(a + 2 * z, avx512_complex_mul(v, pr, pi));
  }
  for (; z < count; ++z) {
    const Complex& p = phases[static_cast<std::size_t>(diag[z])];
    multiply_amp(amps[z], p.real(), p.imag());
  }
}

/// One RX level over two register rows: (v0, v1) <- butterfly(v0, v1).
__attribute__((QAOAML_AVX512_TARGET)) inline void avx512_radix2(
    __m512d& v0, __m512d& v1, __m512d c512, __m512d s_alt) {
  const __m512d w0 = avx512_butterfly_side(v0, v1, c512, s_alt);
  v1 = avx512_butterfly_side(v1, v0, c512, s_alt);
  v0 = w0;
}

/// Two RX levels over four register rows, in the scalar quad's order per
/// element: (0,1), (2,3) for level t, then (0,2), (1,3) for level t+1.
__attribute__((QAOAML_AVX512_TARGET)) inline void avx512_radix4(
    __m512d& v0, __m512d& v1, __m512d& v2, __m512d& v3, __m512d c512,
    __m512d s_alt) {
  avx512_radix2(v0, v1, c512, s_alt);
  avx512_radix2(v2, v3, c512, s_alt);
  avx512_radix2(v0, v2, c512, s_alt);
  avx512_radix2(v1, v3, c512, s_alt);
}

/// Levels t = 0 and t = 1 inside one register of 4 amplitudes.
///  - t = 0: reversing the quadwords of each 256-bit half pairs every
///    amplitude with its neighbor, exactly the AVX2 t = 0 pattern twice
///    over.
///  - t = 1: the partner is two amplitudes away, in the other 256-bit
///    half; a shuffle_f64x2 half swap brings it into place and
///    avx512_butterfly_side does the rest.
__attribute__((QAOAML_AVX512_TARGET)) inline __m512d avx512_mix_in_register(
    __m512d v, __m512d c512, __m512d s_alt) {
  const __m512d w =
      _mm512_add_pd(_mm512_mul_pd(c512, v),
                    _mm512_mul_pd(s_alt, _mm512_permutex_pd(v, 0x1B)));
  return avx512_butterfly_side(w, _mm512_shuffle_f64x2(w, w, 0x4E), c512,
                               s_alt);
}

__attribute__((QAOAML_AVX512_TARGET)) void avx512_butterfly_pair(
    Complex* p0, Complex* p1, std::size_t len, double c, double s) {
  const __m512d c512 = _mm512_set1_pd(c);
  const __m512d s_alt = avx512_signed_sine(s);
  double* r0 = reinterpret_cast<double*>(p0);
  double* r1 = reinterpret_cast<double*>(p1);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    __m512d v0 = _mm512_loadu_pd(r0 + 2 * j);
    __m512d v1 = _mm512_loadu_pd(r1 + 2 * j);
    avx512_radix2(v0, v1, c512, s_alt);
    _mm512_storeu_pd(r0 + 2 * j, v0);
    _mm512_storeu_pd(r1 + 2 * j, v1);
  }
  if (j < len) avx2_butterfly_pair(p0 + j, p1 + j, len - j, c, s);
}

__attribute__((QAOAML_AVX512_TARGET)) void avx512_butterfly_quad(
    Complex* p0, Complex* p1, Complex* p2, Complex* p3, std::size_t len,
    double c, double s) {
  const __m512d c512 = _mm512_set1_pd(c);
  const __m512d s_alt = avx512_signed_sine(s);
  double* r0 = reinterpret_cast<double*>(p0);
  double* r1 = reinterpret_cast<double*>(p1);
  double* r2 = reinterpret_cast<double*>(p2);
  double* r3 = reinterpret_cast<double*>(p3);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    __m512d v0 = _mm512_loadu_pd(r0 + 2 * j);
    __m512d v1 = _mm512_loadu_pd(r1 + 2 * j);
    __m512d v2 = _mm512_loadu_pd(r2 + 2 * j);
    __m512d v3 = _mm512_loadu_pd(r3 + 2 * j);
    avx512_radix4(v0, v1, v2, v3, c512, s_alt);
    _mm512_storeu_pd(r0 + 2 * j, v0);
    _mm512_storeu_pd(r1 + 2 * j, v1);
    _mm512_storeu_pd(r2 + 2 * j, v2);
    _mm512_storeu_pd(r3 + 2 * j, v3);
  }
  if (j < len) {
    avx2_butterfly_quad(p0 + j, p1 + j, p2 + j, p3 + j, len - j, c, s);
  }
}

__attribute__((QAOAML_AVX512_TARGET)) void avx512_butterfly_mirror(
    Complex* p0, Complex* p1, std::size_t len, double c, double s) {
  const __m512d c512 = _mm512_set1_pd(c);
  const __m512d s_alt = avx512_signed_sine(s);
  double* r0 = reinterpret_cast<double*>(p0);
  double* r1 = reinterpret_cast<double*>(p1);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    // p1[len-1-j] .. p1[len-4-j], the partners of p0[j] .. p0[j+3]; imm
    // 0x1B reverses the four 128-bit amplitudes.
    double* q = r1 + 2 * (len - 4 - j);
    __m512d v0 = _mm512_loadu_pd(r0 + 2 * j);
    const __m512d w = _mm512_loadu_pd(q);
    __m512d v1 = _mm512_shuffle_f64x2(w, w, 0x1B);
    avx512_radix2(v0, v1, c512, s_alt);
    _mm512_storeu_pd(r0 + 2 * j, v0);
    _mm512_storeu_pd(q, _mm512_shuffle_f64x2(v1, v1, 0x1B));
  }
  // The partner of p0[j + i] is still p1[len-1-j-i].
  if (j < len) avx2_butterfly_mirror(p0 + j, p1, len - j, c, s);
}

/// mix_tile over register rows of 4 amplitudes (simd_kernels.hpp); the
/// row stride of level t >= 2 is 2^(t-2).
__attribute__((QAOAML_AVX512_TARGET)) void avx512_mix_tile(Complex* tile,
                                                           int m, double c,
                                                           double s) {
  if (m < 2) {
    scalar_mix_tile(tile, m, c, s);  // less than one register row
    return;
  }
  const __m512d c512 = _mm512_set1_pd(c);
  const __m512d s_alt = avx512_signed_sine(s);
  double* r = reinterpret_cast<double*>(tile);
  const std::size_t rows = std::size_t{1} << (m - 2);
  int t = 2;  // first level the passes below still have to apply
  if (m >= 4) {
    // Levels 0 and 1 in-register, then 2 and 3 across four adjacent rows.
    for (std::size_t row = 0; row < rows; row += 4) {
      __m512d v0 = avx512_mix_in_register(
          _mm512_loadu_pd(r + 8 * row), c512, s_alt);
      __m512d v1 = avx512_mix_in_register(
          _mm512_loadu_pd(r + 8 * (row + 1)), c512, s_alt);
      __m512d v2 = avx512_mix_in_register(
          _mm512_loadu_pd(r + 8 * (row + 2)), c512, s_alt);
      __m512d v3 = avx512_mix_in_register(
          _mm512_loadu_pd(r + 8 * (row + 3)), c512, s_alt);
      avx512_radix4(v0, v1, v2, v3, c512, s_alt);
      _mm512_storeu_pd(r + 8 * row, v0);
      _mm512_storeu_pd(r + 8 * (row + 1), v1);
      _mm512_storeu_pd(r + 8 * (row + 2), v2);
      _mm512_storeu_pd(r + 8 * (row + 3), v3);
    }
    t = 4;
  } else {
    for (std::size_t row = 0; row < rows; ++row) {
      _mm512_storeu_pd(r + 8 * row,
                       avx512_mix_in_register(_mm512_loadu_pd(r + 8 * row),
                                              c512, s_alt));
    }
  }
  for (; t + 1 < m; t += 2) {
    const std::size_t stride = std::size_t{1} << (t - 2);
    const std::size_t step = 8 * stride;
    for (std::size_t base = 0; base < rows; base += 4 * stride) {
      for (std::size_t row = base; row < base + stride; ++row) {
        double* q = r + 8 * row;
        __m512d v0 = _mm512_loadu_pd(q);
        __m512d v1 = _mm512_loadu_pd(q + step);
        __m512d v2 = _mm512_loadu_pd(q + 2 * step);
        __m512d v3 = _mm512_loadu_pd(q + 3 * step);
        avx512_radix4(v0, v1, v2, v3, c512, s_alt);
        _mm512_storeu_pd(q, v0);
        _mm512_storeu_pd(q + step, v1);
        _mm512_storeu_pd(q + 2 * step, v2);
        _mm512_storeu_pd(q + 3 * step, v3);
      }
    }
  }
  if (t < m) {
    const std::size_t stride = std::size_t{1} << (t - 2);
    for (std::size_t base = 0; base < rows; base += 2 * stride) {
      for (std::size_t row = base; row < base + stride; ++row) {
        double* q = r + 8 * row;
        __m512d v0 = _mm512_loadu_pd(q);
        __m512d v1 = _mm512_loadu_pd(q + 8 * stride);
        avx512_radix2(v0, v1, c512, s_alt);
        _mm512_storeu_pd(q, v0);
        _mm512_storeu_pd(q + 8 * stride, v1);
      }
    }
  }
}

const KernelTable avx512_table = {
    SimdTier::kAvx512,       avx512_phase_general,
    avx512_phase_integral,   avx512_mix_tile,
    avx512_butterfly_pair,   avx512_butterfly_quad,
    avx512_butterfly_mirror,
    // The AVX2 reduction already realizes the canonical 8-lane tree (one
    // full AVX-512 register of lanes); reusing it keeps one reduction
    // implementation per lane layout instead of a third copy.
    avx2_expectation_lanes,  avx2_expectation_lanes_reversed,
};

#endif  // QAOAML_SIMD_X86

}  // namespace

const KernelTable& kernels(SimdTier tier) {
  // The message is built only on failure: state builds resolve the
  // table once each, and a passing check must not allocate.
  if (!simd_tier_supported(tier)) {
    throw InvalidArgument(std::string("simd::kernels: this CPU does not support ") +
                          to_string(tier));
  }
#if QAOAML_SIMD_X86
  switch (tier) {
    case SimdTier::kScalar:
      return scalar_table;
    case SimdTier::kAvx2:
      return avx2_table;
    case SimdTier::kAvx512:
      return avx512_table;
  }
#endif
  return scalar_table;
}

const KernelTable& active_kernels() { return kernels(active_simd_tier()); }

}  // namespace qaoaml::quantum::simd
