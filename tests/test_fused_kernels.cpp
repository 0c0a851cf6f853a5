// Differential tests for the fused QAOA layer kernels.
//
// The fused path (Statevector::apply_qaoa_layer*) restructures each
// QAOA layer into a few blocked sweeps; it is the library's only layer
// path.  These tests pin it against the test-side reference oracle
// (tests/support/qaoa_reference.hpp): the unfused layer (diagonal
// evolution + one RX gate pass per qubit) and the gate-by-gate ansatz
// simulation, on randomized graphs, angles, depths and qubit counts.
// They also check norm preservation, thread-count determinism, the
// Z2-symmetric half state against the full schedule (bit for bit), the
// closed-form depth-1 oracle at 20 and 22 qubits, and argument
// validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
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
#include "quantum/dispatch.hpp"
#include "quantum/simd_kernels.hpp"
#include "quantum/statevector.hpp"
#include "support/closed_form.hpp"
#include "support/gates.hpp"
#include "support/qaoa_reference.hpp"

namespace qaoaml {
namespace {

using quantum::Complex;
using quantum::Statevector;

/// Fused vs unfused must agree far below this on every amplitude (the
/// arithmetic per amplitude is identical, so the observed difference is
/// exactly zero; 1e-12 is the contract).
constexpr double kAmpTol = 1e-12;

/// A Haar-ish random normalized state: iid complex Gaussians-by-pairs
/// would do, uniform boxes are enough for differential coverage.
Statevector random_state(int num_qubits, Rng& rng) {
  std::vector<Complex> amps(std::size_t{1} << num_qubits);
  double norm_sq = 0.0;
  for (Complex& a : amps) {
    a = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    norm_sq += std::norm(a);
  }
  const double scale = 1.0 / std::sqrt(norm_sq);
  for (Complex& a : amps) a *= scale;
  return Statevector::from_amplitudes(std::move(amps));
}

double max_amp_diff(const Statevector& a, const Statevector& b) {
  double max_diff = 0.0;
  for (std::size_t z = 0; z < a.dimension(); ++z) {
    max_diff =
        std::max(max_diff, std::abs(a.amplitudes()[z] - b.amplitudes()[z]));
  }
  return max_diff;
}

/// An Erdos-Renyi graph guaranteed to have at least one edge.
graph::Graph nonempty_er(int nodes, Rng& rng) {
  for (;;) {
    graph::Graph g = graph::erdos_renyi_gnp(nodes, 0.5, rng);
    if (g.num_edges() > 0) return g;
  }
}

// ---------------------------------------------------------------------
// Kernel level: fused layer vs the unfused gate sequence on random
// states and random diagonals.  Qubit counts up to 14 cover every
// sweep shape: all-local (n <= 11), one leftover high level (n = 12),
// one high pair (n = 13), and a pair plus a leftover (n = 14).
// ---------------------------------------------------------------------

TEST(FusedLayer, MatchesUnfusedOnRandomStatesAndDiagonals) {
  Rng rng(0xF00D);
  for (int n = 1; n <= 14; ++n) {
    Statevector fused = random_state(n, rng);
    Statevector reference = fused;  // same amplitudes
    std::vector<double> diag(fused.dimension());
    for (double& d : diag) d = rng.uniform(-3.0, 3.0);
    const double gamma = rng.uniform(-2.0 * M_PI, 2.0 * M_PI);
    const double beta = rng.uniform(-M_PI, M_PI);

    fused.apply_qaoa_layer(diag, gamma, beta);
    reference = oracle::unfused_layer(reference, diag, gamma, beta);

    EXPECT_LE(max_amp_diff(fused, reference), kAmpTol) << "n=" << n;
  }
}

TEST(FusedLayer, IntegralVariantMatchesGenericKernels) {
  Rng rng(0xBEA7);
  for (int n = 2; n <= 14; ++n) {
    const int max_value = n;  // popcount-like spectrum
    Statevector fused = random_state(n, rng);
    Statevector reference = fused;
    std::vector<int> diag(fused.dimension());
    for (std::size_t z = 0; z < diag.size(); ++z) {
      diag[z] = static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(max_value) + 1));
    }
    const double gamma = rng.uniform(-M_PI, M_PI);
    const double beta = rng.uniform(-M_PI, M_PI);

    fused.apply_qaoa_layer_integral(diag, gamma, max_value, beta);
    reference =
        oracle::unfused_layer_integral(reference, diag, gamma, max_value, beta);

    EXPECT_LE(max_amp_diff(fused, reference), kAmpTol) << "n=" << n;
  }
}

TEST(FusedLayer, PreservesNormOverManyLayers) {
  Rng rng(0x9072);
  for (int n : {3, 8, 13}) {
    Statevector sv = Statevector::uniform(n);
    std::vector<double> diag(sv.dimension());
    for (double& d : diag) d = rng.uniform(0.0, 5.0);
    for (int layer = 0; layer < 8; ++layer) {
      sv.apply_qaoa_layer(diag, rng.uniform(-M_PI, M_PI),
                          rng.uniform(-M_PI, M_PI));
    }
    EXPECT_NEAR(quantum::norm(sv.amplitudes()), 1.0, 1e-12) << "n=" << n;
  }
}

// ---------------------------------------------------------------------
// QAOA level: the routed hot path (MaxCutQaoa::state_into) across
// randomized graphs, depths p = 1..4, and qubit counts 2..12, on both
// unweighted (integral spectrum) and weighted (general) instances.
// ---------------------------------------------------------------------

TEST(FusedQaoa, StateMatchesUnfusedPathOnRandomGraphs) {
  Rng rng(0x51AB);
  for (int n = 2; n <= 12; ++n) {
    const graph::Graph g = nonempty_er(n, rng);
    for (int p = 1; p <= 4; ++p) {
      const core::MaxCutQaoa instance(g, p);
      const std::vector<double> params = core::random_angles(p, rng);
      Statevector fused = Statevector::uniform(n);
      instance.state_into(fused, params);
      const Statevector unfused =
          oracle::unfused_reference_state(instance, params);
      EXPECT_LE(max_amp_diff(fused, unfused), kAmpTol)
          << "n=" << n << " p=" << p;
      EXPECT_NEAR(quantum::norm(fused.amplitudes()), 1.0, 1e-12)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(FusedQaoa, StateMatchesUnfusedPathOnWeightedGraphs) {
  // Random weights break the integral-spectrum detection, forcing the
  // general (cos/sin per amplitude) phase branch on both paths.
  Rng rng(0x3EED);
  for (int n : {4, 7, 10}) {
    graph::Graph g(n);
    for (int u = 0; u < n; ++u) {
      g.add_edge(u, (u + 1) % n, rng.uniform(0.1, 2.0));
    }
    const core::MaxCutQaoa instance(g, 3);
    ASSERT_FALSE(instance.has_integer_spectrum());
    const std::vector<double> params = core::random_angles(3, rng);
    Statevector fused = Statevector::uniform(n);
    instance.state_into(fused, params);
    const Statevector unfused =
        oracle::unfused_reference_state(instance, params);
    EXPECT_LE(max_amp_diff(fused, unfused), kAmpTol) << "n=" << n;
  }
}

TEST(FusedQaoa, ExpectationMatchesGateLevelSimulation) {
  // The gate path builds the state through hundreds of CNOT/RZ/RX
  // applications, so it accumulates more rounding than the layer paths;
  // the observed gap stays below ~3e-13 for these sizes.
  Rng rng(0xC0DE);
  for (int n : {3, 6, 9, 12}) {
    const graph::Graph g = nonempty_er(n, rng);
    for (int p = 1; p <= 4; ++p) {
      const core::MaxCutQaoa instance(g, p);
      const std::vector<double> params = core::random_angles(p, rng);
      EXPECT_NEAR(instance.expectation(params),
                  oracle::gate_level_expectation(instance, params), 1e-12)
          << "n=" << n << " p=" << p;
    }
  }
}

// ---------------------------------------------------------------------
// Thread-count determinism: the fused sweeps are element-wise
// independent, so amplitudes must be bit-identical for every worker
// count once the state is large enough to fan out (n >= 15).
// ---------------------------------------------------------------------

TEST(FusedQaoa, AmplitudesBitIdenticalAcrossThreadCounts) {
  Rng rng(0x7EAD);
  const graph::Graph g = graph::random_regular(16, 3, rng);
  const core::MaxCutQaoa instance(g, 2);
  const std::vector<double> params = core::random_angles(2, rng);

  quantum::AmpVector baseline;
  {
    const ScopedThreadCount threads(1);
    baseline = instance.state(params).amplitudes();
  }
  for (int threads : {2, 3, 8}) {
    const ScopedThreadCount scoped(threads);
    const quantum::AmpVector amps = instance.state(params).amplitudes();
    ASSERT_EQ(amps.size(), baseline.size());
    std::size_t mismatches = 0;
    for (std::size_t z = 0; z < amps.size(); ++z) {
      // Bitwise comparison: == on doubles, not a tolerance.
      if (amps[z] != baseline[z]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "threads=" << threads;
  }
}

TEST(FusedLayer, UniformInputMatchesResetThenLayer) {
  // The first layer of a state build writes the uniform start itself and
  // takes its size from the diagonal: a workspace of another size (and
  // any contents) must give the bits of uniform() + layer.
  Rng rng(0x0F1D);
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  for (const int n : {1, 5, 11, 13, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    std::vector<double> diag(dim);
    std::vector<int> int_diag(dim);
    for (std::size_t z = 0; z < dim; ++z) {
      diag[z] = rng.uniform(-2.0, 2.0);
      int_diag[z] = static_cast<int>(rng.uniform_int(7));
    }
    const double gamma = rng.uniform(-M_PI, M_PI);
    const double beta = rng.uniform(-M_PI, M_PI);
    for (const int threads : {1, 3}) {
      const ScopedThreadCount scoped(threads);
      Statevector expected = Statevector::uniform(n);
      expected.apply_qaoa_layer(diag, gamma, beta, kernels);
      Statevector actual = random_state(n == 1 ? 2 : n - 1, rng);
      actual.apply_qaoa_layer(diag, gamma, beta, kernels,
                              /*uniform_input=*/true);
      ASSERT_EQ(actual.num_qubits(), n);
      EXPECT_TRUE(actual.amplitudes() == expected.amplitudes())
          << "general n=" << n << " threads=" << threads;

      Statevector expected_int = Statevector::uniform(n);
      expected_int.apply_qaoa_layer_integral(int_diag, gamma, 6, beta, false,
                                             kernels);
      Statevector actual_int = random_state(n, rng);
      actual_int.apply_qaoa_layer_integral(int_diag, gamma, 6, beta, false,
                                           kernels, /*uniform_input=*/true);
      EXPECT_TRUE(actual_int.amplitudes() == expected_int.amplitudes())
          << "integral n=" << n << " threads=" << threads;
    }
  }
  Statevector sv = Statevector::uniform(3);
  EXPECT_THROW(sv.apply_qaoa_layer(std::vector<double>(12, 0.0), 0.3, 0.4,
                                   kernels, /*uniform_input=*/true),
               InvalidArgument);
  EXPECT_THROW(sv.apply_qaoa_layer(std::vector<double>(1, 0.0), 0.3, 0.4,
                                   kernels, /*uniform_input=*/true),
               InvalidArgument);
}

// ---------------------------------------------------------------------
// Z2-symmetric half state: a symmetric instance's evaluations run on
// 2^(n-1) stored amplitudes and must give the full schedule's bits.
// ---------------------------------------------------------------------

/// The full schedule: every layer over the whole diagonal, as before the
/// half state existed, then <C> over all 2^n amplitudes.
struct FullBuild {
  Statevector state{1};
  double expectation = 0.0;
};

FullBuild full_schedule(const core::DiagonalQaoa& instance,
                        std::span<const double> params) {
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  const std::vector<double>& diag = instance.hamiltonian().diagonal();
  std::vector<int> int_diag;
  int max_int = 0;
  if (instance.has_integer_spectrum()) {
    for (const double d : diag) {
      int_diag.push_back(static_cast<int>(std::lround(d)));
      max_int = std::max(max_int, int_diag.back());
    }
  }
  FullBuild full;
  const int p = instance.depth();
  for (int stage = 0; stage < p; ++stage) {
    const double gamma = params[static_cast<std::size_t>(stage)];
    const double beta = params[static_cast<std::size_t>(p + stage)];
    if (instance.has_integer_spectrum()) {
      full.state.apply_qaoa_layer_integral(int_diag, gamma, max_int, beta,
                                           false, kernels, stage == 0);
    } else {
      full.state.apply_qaoa_layer(diag, gamma, beta, kernels, stage == 0);
    }
  }
  full.expectation = full.state.expectation_diagonal(diag);
  return full;
}

TEST(HalfState, BitIdenticalToFullScheduleOnEveryTierAndThreadCount) {
  // n = 15..20 take the blocked <C> (upper blocks read reversed) and, at
  // several threads, pass B's column pairing; n <= 3 put the reversed
  // half of <C>'s single block past the first lanes.
  Rng rng(0x4A1F);
  for (int n = 2; n <= 20; ++n) {
    const graph::Graph unweighted = nonempty_er(n, rng);
    const graph::Graph weighted =
        graph::with_random_weights(unweighted, -0.5, 1.5, rng);
    for (const graph::Graph* g : {&unweighted, &weighted}) {
      const int p = n % 2 == 0 ? 1 : 3;
      const core::MaxCutQaoa instance(*g, p);
      ASSERT_TRUE(instance.is_flip_symmetric()) << "n=" << n;
      const std::vector<double> params = core::random_angles(p, rng);
      const std::size_t half = std::size_t{1} << (n - 1);
      for (const quantum::SimdTier tier :
           {quantum::SimdTier::kScalar, quantum::SimdTier::kAvx2,
            quantum::SimdTier::kAvx512}) {
        if (!quantum::simd_tier_supported(tier)) continue;
        const quantum::ScopedSimdTier tier_guard(tier);
        FullBuild full;
        {
          const ScopedThreadCount one(1);
          full = full_schedule(instance, params);
        }
        for (const int threads : {1, 2, 3, 8}) {
          const ScopedThreadCount scoped(threads);
          Statevector workspace(n);
          const double value = instance.expectation_using(workspace, params);
          EXPECT_TRUE(value == full.expectation)
              << quantum::to_string(tier) << " n=" << n << " p=" << p
              << " threads=" << threads << " integral="
              << instance.has_integer_spectrum();
          std::size_t mismatches = 0;
          for (std::size_t z = 0; z < half; ++z) {
            if (workspace.amplitudes()[z] != full.state.amplitudes()[z]) {
              ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << quantum::to_string(tier) << " n=" << n
              << " threads=" << threads;
          Statevector expanded(n);
          instance.state_into(expanded, params);
          EXPECT_TRUE(expanded.amplitudes() == full.state.amplitudes())
              << quantum::to_string(tier) << " n=" << n
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(HalfState, DetectsFlipSymmetryFromTheDiagonalBits) {
  Rng rng(0xD1A6);
  const graph::Graph g = nonempty_er(6, rng);
  EXPECT_TRUE(core::MaxCutQaoa(g, 2).is_flip_symmetric());
  EXPECT_TRUE(core::MaxCutQaoa(graph::with_random_weights(g, -0.5, 1.5, rng), 2)
                  .is_flip_symmetric());

  // A field breaks the symmetry: the full schedule runs, and still
  // matches the unfused layers.
  ising::IsingModel model = ising::IsingModel::from_maxcut(g);
  model.set_field(2, 0.3);
  const core::DiagonalQaoa field(ising::DiagonalHamiltonian::from_ising(model),
                                 2);
  EXPECT_FALSE(field.is_flip_symmetric());
  const std::vector<double> params = core::random_angles(2, rng);
  Statevector expected = Statevector::uniform(6);
  for (int stage = 0; stage < 2; ++stage) {
    expected = oracle::unfused_layer(
        expected, field.hamiltonian().diagonal(),
        params[static_cast<std::size_t>(stage)],
        params[static_cast<std::size_t>(2 + stage)]);
  }
  EXPECT_LE(max_amp_diff(field.state(params), expected), kAmpTol);

  // +0.0 and -0.0 compare equal but give different phase bits.
  std::vector<double> diag(16);
  for (std::size_t z = 0; z < 8; ++z) diag[z] = diag[15 - z] = rng.uniform(-1.0, 1.0);
  diag[3] = 0.0;
  diag[12] = -0.0;
  EXPECT_FALSE(core::DiagonalQaoa(ising::DiagonalHamiltonian(diag), 1)
                   .is_flip_symmetric());
  diag[12] = 0.0;
  EXPECT_TRUE(core::DiagonalQaoa(ising::DiagonalHamiltonian(diag), 1)
                  .is_flip_symmetric());

  // One qubit has no half state (its mirror level would pair an
  // amplitude with itself).
  EXPECT_FALSE(core::DiagonalQaoa(ising::DiagonalHamiltonian({1.0, 1.0}), 1)
                   .is_flip_symmetric());
}

// ---------------------------------------------------------------------
// The closed-form depth-1 oracle (tests/support/closed_form.hpp): first
// its conventions against the statevector at small n, then the real
// two-pass half schedule at sizes no other oracle reaches.
// ---------------------------------------------------------------------

TEST(ClosedFormP1, MatchesStatevectorOnSmallGraphs) {
  Rng rng(0xC105ED);
  for (int n = 4; n <= 10; ++n) {
    const graph::Graph unweighted = nonempty_er(n, rng);
    const graph::Graph weighted =
        graph::with_random_weights(unweighted, -0.5, 1.5, rng);
    for (const graph::Graph* g : {&unweighted, &weighted}) {
      const core::MaxCutQaoa instance(*g, 1);
      for (int trial = 0; trial < 4; ++trial) {
        const double gamma = rng.uniform(-M_PI, M_PI);
        const double beta = rng.uniform(-M_PI, M_PI);
        const std::vector<double> params = {gamma, beta};
        EXPECT_NEAR(oracle::maxcut_p1_expectation(*g, gamma, beta),
                    instance.expectation(params), 1e-12)
            << "n=" << n << " gamma=" << gamma << " beta=" << beta;
      }
    }
  }
}

TEST(ClosedFormP1, MatchesTwoPassHalfScheduleAt20And22Qubits) {
  Rng rng(0x2022);
  for (const int n : {20, 22}) {
    const graph::Graph g = graph::erdos_renyi_gnp(n, 0.5, rng);
    const core::MaxCutQaoa instance(g, 1);
    ASSERT_TRUE(instance.is_flip_symmetric());
    core::BatchEvaluator evaluator(instance);
    for (int trial = 0; trial < 2; ++trial) {
      const double gamma = rng.uniform(-M_PI, M_PI);
      const double beta = rng.uniform(-M_PI, M_PI);
      const std::vector<double> params = {gamma, beta};
      const double expected = oracle::maxcut_p1_expectation(g, gamma, beta);
      EXPECT_NEAR(evaluator.expectation(params), expected,
                  1e-10 * std::abs(expected))
          << "n=" << n << " gamma=" << gamma << " beta=" << beta;
    }
  }
}

// ---------------------------------------------------------------------
// Argument validation (see also Statevector error tests in
// test_quantum.cpp): the fused entry points must reject malformed
// diagonals before touching any amplitude.
// ---------------------------------------------------------------------

TEST(FusedLayer, RejectsMalformedDiagonals) {
  Statevector sv = Statevector::uniform(4);
  EXPECT_THROW(sv.apply_qaoa_layer(std::vector<double>(8, 0.0), 0.3, 0.4),
               InvalidArgument);
  EXPECT_THROW(
      sv.apply_qaoa_layer_integral(std::vector<int>(8, 0), 0.3, 1, 0.4),
      InvalidArgument);
  EXPECT_THROW(
      sv.apply_qaoa_layer_integral(std::vector<int>(16, 0), 0.3, -1, 0.4),
      InvalidArgument);
  // Entries outside [0, max_value] would index past the phase table.
  std::vector<int> too_big(16, 0);
  too_big[5] = 3;
  EXPECT_THROW(sv.apply_qaoa_layer_integral(too_big, 0.3, 2, 0.4),
               InvalidArgument);
  std::vector<int> negative(16, 0);
  negative[9] = -1;
  EXPECT_THROW(sv.apply_qaoa_layer_integral(negative, 0.3, 2, 0.4),
               InvalidArgument);
}

}  // namespace
}  // namespace qaoaml
