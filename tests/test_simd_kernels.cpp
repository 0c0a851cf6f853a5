// Differential oracle suite for the SIMD dispatch tiers.
//
// The explicit AVX2 / AVX-512 kernels (quantum/simd_kernels.hpp) promise
// BIT-identical results to the scalar fused path: same IEEE-754 op
// sequence per amplitude, canonical 8-lane reduction tree.  This suite
// enforces that promise at three levels:
//  - primitive level: every KernelTable entry of every supported vector
//    tier against the scalar table, on lengths that exercise the vector
//    body, the 256-bit step and the scalar remainder lanes;
//  - state level: MaxCutQaoa::state_into and an Ising DiagonalQaoa's
//    state under each forced tier against the scalar tier (== on doubles), and
//    against the test-side gate-by-gate simulation (tests/support) to
//    1e-12, across qubit counts and depths;
//  - scheduling level: bit-determinism across thread counts and the
//    amplitude-sharding batch branch, plus the dispatcher's selection
//    grammar (ScopedSimdTier > QAOAML_SIMD > CPUID) and the 64-byte
//    amplitude alignment of every construction path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/qaoa_objective.hpp"
#include "graph/generators.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "ising/ising_model.hpp"
#include "quantum/aligned.hpp"
#include "quantum/dispatch.hpp"
#include "quantum/fused_kernels.hpp"
#include "quantum/simd_kernels.hpp"
#include "quantum/statevector.hpp"
#include "support/qaoa_reference.hpp"

namespace qaoaml {
namespace {

using quantum::Complex;
using quantum::ScopedSimdTier;
using quantum::SimdTier;
using quantum::Statevector;
using quantum::simd::KernelTable;

/// Gate-level accumulates rounding over hundreds of gate passes; the
/// fused/dispatched paths must stay within this of it.
constexpr double kGateTol = 1e-12;

/// Every tier this build can actually execute, scalar first.
std::vector<SimdTier> supported_tiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    if (quantum::simd_tier_supported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Vector tiers only — the ones differential-tested against scalar.
std::vector<SimdTier> supported_vector_tiers() {
  std::vector<SimdTier> tiers = supported_tiers();
  tiers.erase(tiers.begin());  // kScalar is always first
  return tiers;
}

/// Bit-level double equality: distinguishes -0.0 from +0.0, which
/// operator== does not.  NaNs never occur in these kernels.
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bits_equal(Complex a, Complex b) {
  return bits_equal(a.real(), b.real()) && bits_equal(a.imag(), b.imag());
}

std::vector<Complex> random_amps(std::size_t count, Rng& rng) {
  std::vector<Complex> amps(count);
  for (Complex& a : amps) {
    a = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  return amps;
}

std::size_t count_amp_mismatches(const std::vector<Complex>& a,
                                 const std::vector<Complex>& b) {
  std::size_t mismatches = 0;
  for (std::size_t z = 0; z < a.size(); ++z) {
    if (!bits_equal(a[z], b[z])) ++mismatches;
  }
  return mismatches;
}

/// An Erdos-Renyi graph guaranteed to have at least one edge.
graph::Graph nonempty_er(int nodes, Rng& rng) {
  for (;;) {
    graph::Graph g = graph::erdos_renyi_gnp(nodes, 0.5, rng);
    if (g.num_edges() > 0) return g;
  }
}

/// Lengths exercising the full-width vector body (4 amps for AVX-512),
/// the 256-bit remainder step, the scalar tail, and lone elements.
const std::vector<std::size_t> kOddLengths = {1,  2,  3,  4,  5,   6,  7,
                                              8,  9,  15, 16, 17,  31, 32,
                                              33, 63, 65, 127, 257};

// ---------------------------------------------------------------------
// Dispatcher: grammar, CPUID cumulativity, override precedence.
// ---------------------------------------------------------------------

TEST(SimdDispatch, ParseGrammarAcceptsExactlyTheThreeTiers) {
  EXPECT_EQ(quantum::parse_simd_tier("scalar"), SimdTier::kScalar);
  EXPECT_EQ(quantum::parse_simd_tier("avx2"), SimdTier::kAvx2);
  EXPECT_EQ(quantum::parse_simd_tier("avx512"), SimdTier::kAvx512);
  EXPECT_EQ(quantum::parse_simd_tier(""), std::nullopt);
  EXPECT_EQ(quantum::parse_simd_tier("AVX2"), std::nullopt);
  EXPECT_EQ(quantum::parse_simd_tier("avx-512"), std::nullopt);
  EXPECT_EQ(quantum::parse_simd_tier("sse"), std::nullopt);
  EXPECT_EQ(quantum::parse_simd_tier("scalar "), std::nullopt);
}

TEST(SimdDispatch, ToStringRoundTripsThroughParse) {
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2,
                        SimdTier::kAvx512}) {
    EXPECT_EQ(quantum::parse_simd_tier(quantum::to_string(tier)), tier);
  }
}

TEST(SimdDispatch, DetectedTierIsSupportedAndTiersAreCumulative) {
  EXPECT_TRUE(quantum::simd_tier_supported(quantum::detected_simd_tier()));
  EXPECT_TRUE(quantum::simd_tier_supported(SimdTier::kScalar));
  // A CPU with AVX-512 always has AVX2 (and the probe requires it).
  if (quantum::simd_tier_supported(SimdTier::kAvx512)) {
    EXPECT_TRUE(quantum::simd_tier_supported(SimdTier::kAvx2));
  }
}

TEST(SimdDispatch, ScopedOverrideWinsNestsAndRestores) {
  const SimdTier ambient = quantum::active_simd_tier();
  {
    const ScopedSimdTier outer(SimdTier::kScalar);
    EXPECT_EQ(quantum::active_simd_tier(), SimdTier::kScalar);
    EXPECT_EQ(quantum::simd::active_kernels().tier, SimdTier::kScalar);
    if (quantum::simd_tier_supported(SimdTier::kAvx2)) {
      const ScopedSimdTier inner(SimdTier::kAvx2);
      EXPECT_EQ(quantum::active_simd_tier(), SimdTier::kAvx2);
    }
    EXPECT_EQ(quantum::active_simd_tier(), SimdTier::kScalar);
  }
  EXPECT_EQ(quantum::active_simd_tier(), ambient);
}

TEST(SimdDispatch, EnvVarSelectsTierAndRejectsGarbage) {
  const char* prior = std::getenv("QAOAML_SIMD");
  const std::string saved = prior != nullptr ? prior : "";

  ASSERT_EQ(::setenv("QAOAML_SIMD", "scalar", 1), 0);
  EXPECT_EQ(quantum::active_simd_tier(), SimdTier::kScalar);

  // A typo must throw, not silently change what a run measures.
  ASSERT_EQ(::setenv("QAOAML_SIMD", "turbo", 1), 0);
  EXPECT_THROW(quantum::active_simd_tier(), InvalidArgument);
  EXPECT_THROW(quantum::simd::active_kernels(), InvalidArgument);

  // The scoped override outranks the environment (valid or not).
  {
    const ScopedSimdTier guard(SimdTier::kScalar);
    EXPECT_EQ(quantum::active_simd_tier(), SimdTier::kScalar);
  }

  if (prior != nullptr) {
    ASSERT_EQ(::setenv("QAOAML_SIMD", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(::unsetenv("QAOAML_SIMD"), 0);
  }
}

TEST(SimdDispatch, KernelTablesReportTheirTierAndRejectUnsupported) {
  for (SimdTier tier : supported_tiers()) {
    EXPECT_EQ(quantum::simd::kernels(tier).tier, tier);
  }
  for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (!quantum::simd_tier_supported(tier)) {
      EXPECT_THROW(quantum::simd::kernels(tier), InvalidArgument);
      EXPECT_THROW(ScopedSimdTier{tier}, InvalidArgument);
    }
  }
}

// ---------------------------------------------------------------------
// Primitive level: every vector-tier KernelTable entry bit-identical to
// the scalar table on lengths covering all remainder-lane shapes.
// ---------------------------------------------------------------------

TEST(SimdKernels, PhaseGeneralBitIdenticalToScalarOnAllLengths) {
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  for (SimdTier tier : supported_vector_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0xD15A);
    for (std::size_t len : kOddLengths) {
      const std::vector<Complex> input = random_amps(len, rng);
      std::vector<double> diag(len);
      for (double& d : diag) d = rng.uniform(-4.0, 4.0);
      const double gamma = rng.uniform(-2.0 * M_PI, 2.0 * M_PI);

      std::vector<Complex> expected = input;
      std::vector<Complex> actual = input;
      scalar.phase_general(expected.data(), diag.data(), gamma, len);
      kt.phase_general(actual.data(), diag.data(), gamma, len);
      EXPECT_EQ(count_amp_mismatches(actual, expected), 0u)
          << quantum::to_string(tier) << " len=" << len;
    }
  }
}

TEST(SimdKernels, PhaseIntegralBitIdenticalToScalarOnAllLengths) {
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  constexpr int kMaxValue = 6;
  for (SimdTier tier : supported_vector_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0x1A7E);
    const double gamma = 0.61803398874989485;
    std::vector<Complex> phases(kMaxValue + 1);
    for (int v = 0; v <= kMaxValue; ++v) {
      phases[static_cast<std::size_t>(v)] =
          Complex{std::cos(-gamma * v), std::sin(-gamma * v)};
    }
    for (std::size_t len : kOddLengths) {
      const std::vector<Complex> input = random_amps(len, rng);
      std::vector<int> diag(len);
      for (int& d : diag) {
        d = static_cast<int>(rng.uniform_int(kMaxValue + 1));
      }

      std::vector<Complex> expected = input;
      std::vector<Complex> actual = input;
      scalar.phase_integral(expected.data(), diag.data(), phases.data(), len);
      kt.phase_integral(actual.data(), diag.data(), phases.data(), len);
      EXPECT_EQ(count_amp_mismatches(actual, expected), 0u)
          << quantum::to_string(tier) << " len=" << len;
    }
  }
}

TEST(SimdKernels, ButterflyPairBitIdenticalToScalarOnAllLengths) {
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  for (SimdTier tier : supported_vector_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0xB41A);
    const double beta = rng.uniform(-M_PI, M_PI);
    const double c = std::cos(beta / 2.0);
    const double s = std::sin(beta / 2.0);
    for (std::size_t len : kOddLengths) {
      const std::vector<Complex> row0 = random_amps(len, rng);
      const std::vector<Complex> row1 = random_amps(len, rng);

      std::vector<Complex> e0 = row0;
      std::vector<Complex> e1 = row1;
      std::vector<Complex> a0 = row0;
      std::vector<Complex> a1 = row1;
      scalar.butterfly_pair(e0.data(), e1.data(), len, c, s);
      kt.butterfly_pair(a0.data(), a1.data(), len, c, s);
      EXPECT_EQ(count_amp_mismatches(a0, e0) + count_amp_mismatches(a1, e1),
                0u)
          << quantum::to_string(tier) << " len=" << len;
    }
  }
}

TEST(SimdKernels, ButterflyMirrorBitIdenticalToScalarOnAllLengths) {
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  for (SimdTier tier : supported_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0x3112);
    const double beta = rng.uniform(-M_PI, M_PI);
    const double c = std::cos(beta / 2.0);
    const double s = std::sin(beta / 2.0);
    for (std::size_t len : kOddLengths) {
      const std::vector<Complex> row0 = random_amps(len, rng);
      const std::vector<Complex> row1 = random_amps(len, rng);
      // The definition: butterfly_pair against the second row reversed.
      std::vector<Complex> e0 = row0;
      std::vector<Complex> e1(row1.rbegin(), row1.rend());
      scalar.butterfly_pair(e0.data(), e1.data(), len, c, s);
      std::reverse(e1.begin(), e1.end());

      std::vector<Complex> a0 = row0;
      std::vector<Complex> a1 = row1;
      kt.butterfly_mirror(a0.data(), a1.data(), len, c, s);
      EXPECT_EQ(count_amp_mismatches(a0, e0) + count_amp_mismatches(a1, e1),
                0u)
          << quantum::to_string(tier) << " len=" << len;
    }
  }
}

TEST(SimdKernels, ButterflyQuadBitIdenticalToScalarOnAllLengths) {
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  for (SimdTier tier : supported_vector_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0x9A4D);
    const double beta = rng.uniform(-M_PI, M_PI);
    const double c = std::cos(beta / 2.0);
    const double s = std::sin(beta / 2.0);
    for (std::size_t len : kOddLengths) {
      std::vector<std::vector<Complex>> expected;
      std::vector<std::vector<Complex>> actual;
      for (int r = 0; r < 4; ++r) {
        expected.push_back(random_amps(len, rng));
        actual.push_back(expected.back());
      }
      scalar.butterfly_quad(expected[0].data(), expected[1].data(),
                            expected[2].data(), expected[3].data(), len, c, s);
      kt.butterfly_quad(actual[0].data(), actual[1].data(), actual[2].data(),
                        actual[3].data(), len, c, s);
      std::size_t mismatches = 0;
      for (int r = 0; r < 4; ++r) {
        mismatches += count_amp_mismatches(
            actual[static_cast<std::size_t>(r)],
            expected[static_cast<std::size_t>(r)]);
      }
      EXPECT_EQ(mismatches, 0u) << quantum::to_string(tier) << " len=" << len;
    }
  }
}

TEST(SimdKernels, MixTileBitIdenticalToScalarForEveryTileSize) {
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  for (SimdTier tier : supported_vector_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0x717E);
    const double beta = rng.uniform(-M_PI, M_PI);
    const double c = std::cos(beta / 2.0);
    const double s = std::sin(beta / 2.0);
    for (int m = 1; m <= 11; ++m) {
      const std::vector<Complex> input =
          random_amps(std::size_t{1} << m, rng);
      std::vector<Complex> expected = input;
      std::vector<Complex> actual = input;
      scalar.mix_tile(expected.data(), m, c, s);
      kt.mix_tile(actual.data(), m, c, s);
      EXPECT_EQ(count_amp_mismatches(actual, expected), 0u)
          << quantum::to_string(tier) << " m=" << m;
    }
  }
  // The same tiles one amplitude past a 64-byte boundary, on every tier:
  // the kernels must not assume an aligned tile.
  for (SimdTier tier : supported_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0x0FF1);
    const double beta = rng.uniform(-M_PI, M_PI);
    const double c = std::cos(beta / 2.0);
    const double s = std::sin(beta / 2.0);
    for (int m = 1; m <= 11; ++m) {
      const std::vector<Complex> input =
          random_amps(std::size_t{1} << m, rng);
      std::vector<Complex> expected = input;
      scalar.mix_tile(expected.data(), m, c, s);
      quantum::AmpVector buffer(input.size() + 1);  // 64-byte aligned
      Complex* tile = buffer.data() + 1;
      std::copy(input.begin(), input.end(), tile);
      kt.mix_tile(tile, m, c, s);
      const std::vector<Complex> actual(tile, tile + input.size());
      EXPECT_EQ(count_amp_mismatches(actual, expected), 0u)
          << quantum::to_string(tier) << " misaligned m=" << m;
    }
  }
}

// ---------------------------------------------------------------------
// Layer schedule: the fused layer on explicit, shrunken tile sizes, so
// that small states run both passes, leftover single levels in each and
// thread counts that do not divide the tile counts.  The oracle applies
// the levels one by one: scalar phase_integral over the whole state,
// then scalar mix_tile over all n levels.
// ---------------------------------------------------------------------

TEST(FusedTiles, LayerBitIdenticalToLevelOracleForEveryShape) {
  namespace fused = quantum::fused;
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  // Shrunken shapes stop early: well past their tile size, pass B's rows
  // shrink to one amplitude each and the run gets long.
  struct Tiles {
    int l1;
    int l2;
    int max_n;
  };
  const std::vector<Tiles> shapes = {
      {fused::kBlockQubits, fused::kL2Qubits, 20}, {2, 5, 14}, {3, 6, 14},
      {4, 9, 17}};
  Rng rng(0x711E);
  for (int n = 1; n <= 20; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    const int max_value = n + 3;
    std::vector<int> diag(dim);
    for (int& d : diag) {
      d = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(max_value) + 1));
    }
    const double gamma = rng.uniform(-M_PI, M_PI);
    std::vector<Complex> phases(static_cast<std::size_t>(max_value) + 1);
    for (std::size_t k = 0; k < phases.size(); ++k) {
      const double phi = -gamma * static_cast<double>(k);
      phases[k] = Complex{std::cos(phi), std::sin(phi)};
    }
    const double beta = rng.uniform(-M_PI, M_PI);
    const double c = std::cos(beta / 2.0);
    const double s = std::sin(beta / 2.0);
    auto level_by_level = [&](std::vector<Complex> amps) {
      scalar.phase_integral(amps.data(), diag.data(), phases.data(), dim);
      scalar.mix_tile(amps.data(), n, c, s);
      return amps;
    };
    const std::vector<Complex> input = random_amps(dim, rng);
    const std::vector<Complex> expected = level_by_level(input);
    const std::vector<Complex> expected_uniform = level_by_level(
        std::vector<Complex>(dim, Complex{1.0 / std::sqrt(static_cast<double>(dim)), 0.0}));
    for (SimdTier tier : supported_tiers()) {
      const KernelTable& kt = quantum::simd::kernels(tier);
      for (const Tiles& tiles : shapes) {
        if (n > tiles.max_n) continue;
        for (const int threads : {1, 2, 3, 8}) {
          std::vector<Complex> actual = input;
          fused::detail::apply_layer_integral_tiled(
              actual.data(), n, diag.data(), phases.data(), beta, threads, kt,
              tiles.l1, tiles.l2, fused::LayerInput::kState);
          EXPECT_EQ(count_amp_mismatches(actual, expected), 0u)
              << quantum::to_string(tier) << " n=" << n << " l1=" << tiles.l1
              << " l2=" << tiles.l2 << " threads=" << threads;
          // A uniform-input layer never reads the buffer: NaNs left in it
          // must not reach the result.
          std::vector<Complex> started(dim, Complex{std::nan(""), std::nan("")});
          fused::detail::apply_layer_integral_tiled(
              started.data(), n, diag.data(), phases.data(), beta, threads, kt,
              tiles.l1, tiles.l2, fused::LayerInput::kUniform);
          EXPECT_EQ(count_amp_mismatches(started, expected_uniform), 0u)
              << quantum::to_string(tier) << " uniform n=" << n
              << " l1=" << tiles.l1 << " l2=" << tiles.l2
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(FusedTiles, HalfLayerBitIdenticalToFullLayerForEveryShape) {
  // The half layer on a Z2-symmetric state and diagonal against the
  // full level-by-level oracle, on the shrunken shapes too, so that
  // small states reach pass B's column pairing (one column, and pairs)
  // and the mirror level after a single tile.
  namespace fused = quantum::fused;
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  struct Tiles {
    int l1;
    int l2;
    int max_stored;
  };
  const std::vector<Tiles> shapes = {
      {fused::kBlockQubits, fused::kL2Qubits, 19}, {2, 5, 13}, {3, 6, 13},
      {4, 9, 16}};
  Rng rng(0x4A1F);
  for (int n = 2; n <= 20; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t half = dim / 2;
    const int max_value = n + 3;
    std::vector<int> diag(dim);
    std::vector<Complex> input(dim);
    for (std::size_t z = 0; z < half; ++z) {
      diag[z] = diag[dim - 1 - z] = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(max_value) + 1));
      input[z] = input[dim - 1 - z] =
          Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    }
    const double gamma = rng.uniform(-M_PI, M_PI);
    std::vector<Complex> phases(static_cast<std::size_t>(max_value) + 1);
    for (std::size_t k = 0; k < phases.size(); ++k) {
      const double phi = -gamma * static_cast<double>(k);
      phases[k] = Complex{std::cos(phi), std::sin(phi)};
    }
    const double beta = rng.uniform(-M_PI, M_PI);
    const double c = std::cos(beta / 2.0);
    const double s = std::sin(beta / 2.0);
    auto lower_half_after_layer = [&](std::vector<Complex> amps) {
      scalar.phase_integral(amps.data(), diag.data(), phases.data(), dim);
      scalar.mix_tile(amps.data(), n, c, s);
      // The full result is symmetric too: its upper half mirrors the
      // lower half the half layer keeps.
      for (std::size_t z = 0; z < half; ++z) {
        EXPECT_TRUE(bits_equal(amps[z], amps[dim - 1 - z])) << "n=" << n;
      }
      amps.resize(half);
      return amps;
    };
    const std::vector<Complex> expected = lower_half_after_layer(input);
    const std::vector<Complex> expected_uniform = lower_half_after_layer(
        std::vector<Complex>(dim, Complex{1.0 / std::sqrt(static_cast<double>(dim)), 0.0}));
    for (SimdTier tier : supported_tiers()) {
      const KernelTable& kt = quantum::simd::kernels(tier);
      for (const Tiles& tiles : shapes) {
        if (n - 1 > tiles.max_stored) continue;
        for (const int threads : {1, 2, 3, 8}) {
          std::vector<Complex> actual(input.begin(), input.begin() + half);
          fused::detail::apply_layer_integral_tiled(
              actual.data(), n, diag.data(), phases.data(), beta, threads, kt,
              tiles.l1, tiles.l2, fused::LayerInput::kState,
              fused::Storage::kMirrorHalf);
          EXPECT_EQ(count_amp_mismatches(actual, expected), 0u)
              << quantum::to_string(tier) << " n=" << n << " l1=" << tiles.l1
              << " l2=" << tiles.l2 << " threads=" << threads;
          std::vector<Complex> started(half, Complex{std::nan(""), std::nan("")});
          fused::detail::apply_layer_integral_tiled(
              started.data(), n, diag.data(), phases.data(), beta, threads, kt,
              tiles.l1, tiles.l2, fused::LayerInput::kUniform,
              fused::Storage::kMirrorHalf);
          EXPECT_EQ(count_amp_mismatches(started, expected_uniform), 0u)
              << quantum::to_string(tier) << " uniform n=" << n
              << " l1=" << tiles.l1 << " l2=" << tiles.l2
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(SimdKernels, ExpectationBlockBitIdenticalToScalarOnAllLengths) {
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  for (SimdTier tier : supported_vector_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0xE4B0);
    for (std::size_t len : kOddLengths) {
      const std::vector<Complex> amps = random_amps(len, rng);
      std::vector<double> diag(len);
      for (double& d : diag) d = rng.uniform(-5.0, 5.0);
      const double expected = quantum::simd::expectation_block(
          scalar, amps.data(), diag.data(), len);
      const double actual =
          quantum::simd::expectation_block(kt, amps.data(), diag.data(), len);
      EXPECT_TRUE(bits_equal(actual, expected))
          << quantum::to_string(tier) << " len=" << len << " got " << actual
          << " want " << expected;
    }
  }
}

TEST(SimdKernels, ExpectationLanesBothDirectionsBitIdenticalToScalar) {
  // Lanes start from arbitrary values (a block's second range continues
  // its first), and the reversed read must equal the forward kernel on
  // reversed copies of the range.
  const KernelTable& scalar = quantum::simd::kernels(SimdTier::kScalar);
  for (SimdTier tier : supported_tiers()) {
    const KernelTable& kt = quantum::simd::kernels(tier);
    Rng rng(0x1A2E);
    for (std::size_t len : kOddLengths) {
      const std::vector<Complex> amps = random_amps(len, rng);
      std::vector<double> diag(len);
      for (double& d : diag) d = rng.uniform(-5.0, 5.0);
      double start[8];
      for (double& l : start) l = rng.uniform(-1.0, 1.0);

      double expected[8], actual[8];
      std::copy(start, start + 8, expected);
      std::copy(start, start + 8, actual);
      scalar.expectation_lanes(expected, amps.data(), diag.data(), len);
      kt.expectation_lanes(actual, amps.data(), diag.data(), len);
      for (int j = 0; j < 8; ++j) {
        EXPECT_TRUE(bits_equal(actual[j], expected[j]))
            << quantum::to_string(tier) << " forward len=" << len
            << " lane " << j;
      }

      const std::vector<Complex> amps_rev(amps.rbegin(), amps.rend());
      const std::vector<double> diag_rev(diag.rbegin(), diag.rend());
      std::copy(start, start + 8, expected);
      std::copy(start, start + 8, actual);
      scalar.expectation_lanes(expected, amps_rev.data(), diag_rev.data(),
                               len);
      kt.expectation_lanes_reversed(actual, amps.data(), diag.data(), len);
      for (int j = 0; j < 8; ++j) {
        EXPECT_TRUE(bits_equal(actual[j], expected[j]))
            << quantum::to_string(tier) << " reversed len=" << len
            << " lane " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------
// State level: the routed hot path under each forced tier, bit-compared
// to the scalar tier and tolerance-compared to the gate-level oracle,
// over qubits 2..14 (every sweep shape) x depths 1..4.
// ---------------------------------------------------------------------

TEST(SimdQaoa, DispatchedStateBitIdenticalToScalarAcrossQubitsAndDepths) {
  const std::vector<SimdTier> tiers = supported_vector_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this CPU";
  Rng rng(0x5EED);
  for (int n = 2; n <= 14; ++n) {
    const graph::Graph g = nonempty_er(n, rng);
    for (int p = 1; p <= 4; ++p) {
      const core::MaxCutQaoa instance(g, p);
      const std::vector<double> params = core::random_angles(p, rng);
      Statevector scalar_state = Statevector::uniform(n);
      {
        const ScopedSimdTier guard(SimdTier::kScalar);
        instance.state_into(scalar_state, params);
      }
      for (SimdTier tier : tiers) {
        Statevector state = Statevector::uniform(n);
        const ScopedSimdTier guard(tier);
        instance.state_into(state, params);
        std::size_t mismatches = 0;
        for (std::size_t z = 0; z < state.dimension(); ++z) {
          if (!bits_equal(state.amplitudes()[z],
                          scalar_state.amplitudes()[z])) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << quantum::to_string(tier) << " n=" << n << " p=" << p;
      }
    }
  }
}

TEST(SimdQaoa, DispatchedStateBitIdenticalToScalarOnWeightedGraphs) {
  // Random weights force the general (cos/sin per amplitude) phase
  // branch instead of the integral phase table.  The last input is a
  // weighted Ising model with nonzero fields, prepared by DiagonalQaoa
  // on the same fused layer.
  const std::vector<SimdTier> tiers = supported_vector_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this CPU";
  Rng rng(0xAB1E);
  for (int n : {4, 9, 14}) {
    graph::Graph g(n);
    for (int u = 0; u < n; ++u) {
      g.add_edge(u, (u + 1) % n, rng.uniform(0.1, 2.0));
    }
    const core::MaxCutQaoa instance(g, 3);
    ASSERT_FALSE(instance.has_integer_spectrum());
    const std::vector<double> params = core::random_angles(3, rng);
    Statevector scalar_state = Statevector::uniform(n);
    {
      const ScopedSimdTier guard(SimdTier::kScalar);
      instance.state_into(scalar_state, params);
    }
    for (SimdTier tier : tiers) {
      Statevector state = Statevector::uniform(n);
      const ScopedSimdTier guard(tier);
      instance.state_into(state, params);
      std::size_t mismatches = 0;
      for (std::size_t z = 0; z < state.dimension(); ++z) {
        if (!bits_equal(state.amplitudes()[z], scalar_state.amplitudes()[z])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << quantum::to_string(tier) << " n=" << n;
    }
  }

  ising::IsingModel model(11);
  for (int i = 0; i < 11; ++i) {
    model.set_field(i, rng.uniform(-1.0, 1.0));
    model.add_coupling(i, (i + 3) % 11, rng.uniform(-1.5, 1.5));
  }
  const core::DiagonalQaoa ising_instance(
      ising::DiagonalHamiltonian::from_ising(model), 3);
  const std::vector<double> params = core::random_angles(3, rng);
  Statevector scalar_state = Statevector::uniform(1);
  {
    const ScopedSimdTier guard(SimdTier::kScalar);
    scalar_state = ising_instance.state(params);
  }
  for (SimdTier tier : tiers) {
    const ScopedSimdTier guard(tier);
    const Statevector state = ising_instance.state(params);
    std::size_t mismatches = 0;
    for (std::size_t z = 0; z < state.dimension(); ++z) {
      if (!bits_equal(state.amplitudes()[z], scalar_state.amplitudes()[z])) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << quantum::to_string(tier) << " ising n=11";
  }
}

TEST(SimdQaoa, EveryTierMatchesGateLevelSimulation) {
  Rng rng(0x6A7E);
  for (int n : {4, 9, 12}) {
    const graph::Graph g = nonempty_er(n, rng);
    for (int p = 1; p <= 4; ++p) {
      const core::MaxCutQaoa instance(g, p);
      const std::vector<double> params = core::random_angles(p, rng);
      const double gate_level =
          oracle::gate_level_expectation(instance, params);
      for (SimdTier tier : supported_tiers()) {
        const ScopedSimdTier guard(tier);
        EXPECT_NEAR(instance.expectation(params), gate_level, kGateTol)
            << quantum::to_string(tier) << " n=" << n << " p=" << p;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Scheduling level: thread counts {1, 8}, the blocked CDF, and the
// batch amplitude-sharding branch must never move a bit, on any tier.
// ---------------------------------------------------------------------

TEST(SimdQaoa, StateAndExpectationBitIdenticalAcrossThreadsAndTiers) {
  Rng rng(0x7D0A);
  const graph::Graph g = graph::random_regular(16, 3, rng);
  const core::MaxCutQaoa instance(g, 2);
  const std::vector<double> params = core::random_angles(2, rng);

  quantum::AmpVector baseline_amps;
  double baseline_expectation = 0.0;
  {
    const ScopedSimdTier tier_guard(SimdTier::kScalar);
    const ScopedThreadCount thread_guard(1);
    baseline_amps = instance.state(params).amplitudes();
    baseline_expectation = instance.expectation(params);
  }
  for (SimdTier tier : supported_tiers()) {
    for (int threads : {1, 8}) {
      const ScopedSimdTier tier_guard(tier);
      const ScopedThreadCount thread_guard(threads);
      const Statevector state = instance.state(params);
      ASSERT_EQ(state.dimension(), baseline_amps.size());
      std::size_t mismatches = 0;
      for (std::size_t z = 0; z < baseline_amps.size(); ++z) {
        if (!bits_equal(state.amplitudes()[z], baseline_amps[z])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u)
          << quantum::to_string(tier) << " threads=" << threads;
      EXPECT_TRUE(bits_equal(instance.expectation(params),
                             baseline_expectation))
          << quantum::to_string(tier) << " threads=" << threads;
    }
  }
}

TEST(SimdQaoa, BlockedCdfBitIdenticalAcrossThreadsAndTiers) {
  Rng rng(0xCDF0);
  const graph::Graph g = graph::random_regular(16, 3, rng);
  const core::MaxCutQaoa instance(g, 1);
  const std::vector<double> params = core::random_angles(1, rng);
  const Statevector state = instance.state(params);  // dim 65536: 4 blocks

  std::vector<double> baseline;
  {
    const ScopedSimdTier tier_guard(SimdTier::kScalar);
    const ScopedThreadCount thread_guard(1);
    state.cumulative_probabilities(baseline);
  }
  ASSERT_EQ(baseline.size(), state.dimension());
  EXPECT_NEAR(baseline.back(), 1.0, 1e-12);
  for (SimdTier tier : supported_tiers()) {
    for (int threads : {1, 2, 8}) {
      const ScopedSimdTier tier_guard(tier);
      const ScopedThreadCount thread_guard(threads);
      std::vector<double> cdf;
      state.cumulative_probabilities(cdf);
      ASSERT_EQ(cdf.size(), baseline.size());
      std::size_t mismatches = 0;
      for (std::size_t z = 0; z < cdf.size(); ++z) {
        if (!bits_equal(cdf[z], baseline[z])) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u)
          << quantum::to_string(tier) << " threads=" << threads;
    }
  }
}

TEST(BatchSharding, PolicyFlipsExactlyAtPoolAndDimensionThresholds) {
  using core::BatchEvaluator;
  // The dimension threshold is the kernels' parallel crossover.
  for (int n = 1; n <= 20; ++n) {
    const bool large_enough =
        (std::size_t{1} << n) >= quantum::kAmplitudeParallelDim;
    EXPECT_EQ(BatchEvaluator::shards_amplitudes(1, n, 8), large_enough)
        << "n=" << n;
  }
  // The batch threshold is the pool size.
  EXPECT_TRUE(BatchEvaluator::shards_amplitudes(7, 16, 8));
  EXPECT_FALSE(BatchEvaluator::shards_amplitudes(8, 16, 8));
  EXPECT_FALSE(BatchEvaluator::shards_amplitudes(9, 16, 8));
  // A single-thread pool never shards (nothing to fan out over).
  EXPECT_FALSE(BatchEvaluator::shards_amplitudes(1, 16, 1));
  EXPECT_FALSE(BatchEvaluator::shards_amplitudes(1, 16, 0));
  // Degenerate qubit counts are rejected, not shifted into UB.
  EXPECT_FALSE(BatchEvaluator::shards_amplitudes(1, 0, 8));
  EXPECT_FALSE(BatchEvaluator::shards_amplitudes(1, -3, 8));
  EXPECT_FALSE(BatchEvaluator::shards_amplitudes(1, 64, 8));
}

TEST(BatchSharding, ShardedBranchBitIdenticalToFanOutBranch) {
  Rng rng(0x54A2);
  const graph::Graph g = graph::random_regular(16, 3, rng);
  const core::MaxCutQaoa instance(g, 2);
  const core::BatchEvaluator evaluator(instance);
  std::vector<std::vector<double>> batch;
  for (int i = 0; i < 2; ++i) batch.push_back(core::random_angles(2, rng));

  // batch(2) < threads(8) and 2^16 >= the parallel dim: sharded branch.
  ASSERT_TRUE(core::BatchEvaluator::shards_amplitudes(batch.size(), 16, 8));
  std::vector<double> sharded;
  {
    const ScopedThreadCount threads(8);
    sharded = evaluator.expectations(batch);
  }
  // threads(1): the classic fan-out branch, fully serial.
  std::vector<double> serial;
  {
    const ScopedThreadCount threads(1);
    serial = evaluator.expectations(batch);
  }
  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bits_equal(sharded[i], serial[i])) << "entry " << i;
  }
}

// ---------------------------------------------------------------------
// Alignment: the vector kernels issue aligned 64-byte loads from
// data(); the allocator must deliver that on every construction path.
// ---------------------------------------------------------------------

TEST(AmplitudeAlignment, EveryConstructionPathYields64ByteAlignedData) {
  auto aligned = [](const Statevector& sv) {
    return reinterpret_cast<std::uintptr_t>(sv.amplitudes().data()) %
               quantum::kAmplitudeAlignment ==
           0;
  };
  for (int n : {1, 4, 11, 14}) {
    EXPECT_TRUE(aligned(Statevector(n))) << "zero state n=" << n;
    EXPECT_TRUE(aligned(Statevector::uniform(n))) << "uniform n=" << n;
  }
  Rng rng(0xA119);
  std::vector<Complex> amps(std::size_t{1} << 6);
  for (Complex& a : amps) {
    a = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  EXPECT_TRUE(aligned(Statevector::from_amplitudes(std::move(amps))));

  // A uniform-input layer over a larger diagonal reallocates; the new
  // buffer must keep the alignment guarantee.
  const std::vector<double> diag(std::size_t{1} << 12, 0.5);
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  Statevector sv(3);
  sv.apply_qaoa_layer(diag, 0.3, 0.2, kernels, /*uniform_input=*/true);
  EXPECT_TRUE(aligned(sv));
  sv.apply_qaoa_layer(diag, 0.3, 0.2, kernels, true);  // in-place reuse path
  EXPECT_TRUE(aligned(sv));
}

}  // namespace
}  // namespace qaoaml
