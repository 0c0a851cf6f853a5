// Cross-module property sweeps (parameterized): invariants that must
// hold for every combination of optimizer, graph family, and depth.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/qaoa_solver.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "optim/optimizer.hpp"
#include "quantum/dispatch.hpp"
#include "quantum/sim_config.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: every optimizer on every QAOA depth keeps core invariants.
// ---------------------------------------------------------------------

using OptDepthCase = std::tuple<optim::OptimizerKind, int>;

class OptimizerDepthSweep : public ::testing::TestWithParam<OptDepthCase> {};

TEST_P(OptimizerDepthSweep, QaoaRunSatisfiesInvariants) {
  const auto [kind, depth] = GetParam();
  Rng rng(0x1234 + static_cast<std::uint64_t>(depth));
  const graph::Graph g = graph::erdos_renyi_gnp(7, 0.5, rng);
  if (g.num_edges() == 0) GTEST_SKIP();
  const core::MaxCutQaoa instance(g, depth);

  const core::QaoaRun run = core::solve_random_init(instance, kind, rng);

  // The optimizer reports the value of the point it returns.
  EXPECT_NEAR(run.expectation, instance.expectation(run.params), 1e-9);
  // Angles stay inside the paper's domain.
  EXPECT_TRUE(instance.bounds().contains(run.params));
  // AR is a physical ratio.
  EXPECT_GT(run.approximation_ratio, 0.0);
  EXPECT_LE(run.approximation_ratio, 1.0 + 1e-9);
  // Work was accounted.
  EXPECT_GT(run.function_calls, 0);
  // An optimized point beats the uniform-state baseline <C> = m/2.
  EXPECT_GE(run.expectation,
            static_cast<double>(g.num_edges()) / 2.0 - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OptimizerDepthSweep,
    ::testing::Combine(::testing::ValuesIn(optim::all_optimizers()),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<OptDepthCase>& info) {
      std::string name = optim::to_string(std::get<0>(info.param)) + "_p" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 2: graph families — QAOA p=1 must respect known MaxCut facts.
// ---------------------------------------------------------------------

struct FamilyCase {
  const char* name;
  graph::Graph (*make)(int);
  int nodes;
};

// Without this, GoogleTest prints the raw bytes of a FamilyCase (pointers
// that vary from run to run under ASLR, and padding) into the test names.
void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.name; }

class GraphFamilySweep : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(GraphFamilySweep, ExpectationBoundedByExactOptimum) {
  const FamilyCase c = GetParam();
  const graph::Graph g = c.make(c.nodes);
  const core::MaxCutQaoa instance(g, 2);
  Rng rng(0x77);
  for (int trial = 0; trial < 10; ++trial) {
    const double e = instance.expectation(core::random_angles(2, rng));
    EXPECT_LE(e, instance.max_cut_value() + 1e-9) << c.name;
    EXPECT_GE(e, 0.0) << c.name;
  }
}

TEST_P(GraphFamilySweep, OptimizedStateConcentratesOnGoodCuts) {
  const FamilyCase c = GetParam();
  const graph::Graph g = c.make(c.nodes);
  const core::MaxCutQaoa instance(g, 2);
  Rng rng(0x99);
  const core::MultistartRuns runs = core::solve_multistart(
      instance, optim::OptimizerKind::kLbfgsb, 6, rng);
  // The optimized expectation must clearly beat the random-assignment
  // average m/2.
  EXPECT_GT(runs.best.expectation,
            static_cast<double>(g.num_edges()) / 2.0 + 0.1)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, GraphFamilySweep,
    ::testing::Values(FamilyCase{"cycle6", &graph::cycle_graph, 6},
                      FamilyCase{"cycle7", &graph::cycle_graph, 7},
                      FamilyCase{"complete5", &graph::complete_graph, 5},
                      FamilyCase{"star6", &graph::star_graph, 6},
                      FamilyCase{"path6", &graph::path_graph, 6}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// Sweep 3: angle-transform invariances across depths.
// ---------------------------------------------------------------------

class DepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DepthSweep, InterpFromDepthPHasDepthPPlusOneLayout) {
  const int p = GetParam();
  Rng rng(42 + static_cast<std::uint64_t>(p));
  const std::vector<double> params = core::random_angles(p, rng);
  const std::vector<double> next = core::interp_angles(params);
  ASSERT_EQ(next.size(), core::num_angles(p + 1));
  // Endpoints: first stage keeps the old first stage's weight profile,
  // and every interpolated angle lies within the old angle range.
  for (int i = 1; i <= p + 1; ++i) {
    double lo = 1e300;
    double hi = -1e300;
    for (int j = 1; j <= p; ++j) {
      lo = std::min(lo, core::gamma_of(params, j));
      hi = std::max(hi, core::gamma_of(params, j));
    }
    EXPECT_GE(core::gamma_of(next, i), std::min(0.0, lo) - 1e-12);
    EXPECT_LE(core::gamma_of(next, i), hi + 1e-12);
  }
}

TEST_P(DepthSweep, CanonicalizationIsAnInvolutionOnTheMirror) {
  const int p = GetParam();
  Rng rng(77 + static_cast<std::uint64_t>(p));
  const std::vector<double> params = core::random_angles(p, rng);
  const std::vector<double> canon = core::canonicalize_angles(params);
  // Mirror of the canonical form is either itself (fixed point) or maps
  // back to the canonical form when canonicalized again.
  std::vector<double> mirrored(canon.size());
  for (std::size_t i = 0; i < canon.size() / 2; ++i) {
    mirrored[i] = 2.0 * M_PI - canon[i];
    mirrored[canon.size() / 2 + i] = M_PI - canon[canon.size() / 2 + i];
  }
  const std::vector<double> back = core::canonicalize_angles(mirrored);
  for (std::size_t i = 0; i < canon.size(); ++i) {
    EXPECT_NEAR(back[i], canon[i], 1e-12);
  }
}

TEST_P(DepthSweep, RampAnglesAreCanonical) {
  const int p = GetParam();
  const std::vector<double> ramp = core::linear_ramp_angles(p);
  EXPECT_EQ(core::canonicalize_angles(ramp), ramp);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep, ::testing::Values(1, 2, 3, 4, 6));

// ---------------------------------------------------------------------
// Sweep 4: weighted graphs — scaling covariance of the objective.
// ---------------------------------------------------------------------

TEST(WeightScaling, ExpectationScalesWithUniformWeights) {
  // Scaling all weights by c scales <C> by c when gamma is rescaled by
  // 1/c (the phase separator sees w * gamma only as a product).
  Rng rng(5);
  graph::Graph g = graph::cycle_graph(6);
  graph::Graph scaled(6);
  const double c = 2.5;
  for (const graph::Edge& e : g.edges()) scaled.add_edge(e.u, e.v, c);

  const core::MaxCutQaoa base(g, 2);
  const core::MaxCutQaoa big(scaled, 2);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<double> params = core::random_angles(2, rng);
    std::vector<double> rescaled = params;
    rescaled[0] = params[0] / c;  // gamma_1
    rescaled[1] = params[1] / c;  // gamma_2
    EXPECT_NEAR(c * base.expectation(params), big.expectation(rescaled),
                1e-9);
  }
}

// ---------------------------------------------------------------------
// Sweep 5: simulator-path invariances — physical symmetries of the QAOA
// energy, each checked on every (layer kernel, SIMD tier) combination:
// fused and unfused sweeps, each under the scalar, AVX2 and AVX-512
// dispatch tiers (tiers this CPU lacks are skipped).
// ---------------------------------------------------------------------

using SimPathCase = std::tuple<quantum::LayerKernel, quantum::SimdTier>;

class SimulatorPathSweep : public ::testing::TestWithParam<SimPathCase> {
 protected:
  /// Skips tiers this CPU cannot execute; otherwise pins both switches
  /// for the duration of the test body.
  void SetUp() override {
    const auto [kernel, tier] = GetParam();
    if (!quantum::simd_tier_supported(tier)) {
      GTEST_SKIP() << quantum::to_string(tier) << " unsupported on this CPU";
    }
    kernel_guard_.emplace(kernel);
    tier_guard_.emplace(tier);
  }

 private:
  std::optional<quantum::ScopedLayerKernel> kernel_guard_;
  std::optional<quantum::ScopedSimdTier> tier_guard_;
};

TEST_P(SimulatorPathSweep, EnergyInvariantUnderQubitRelabeling) {
  // Relabeling the graph nodes permutes the qubits; the cost spectrum
  // and the (qubit-symmetric) mixer are unchanged, so <C> must be too.
  Rng rng(0xAB12);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 8;
    const graph::Graph g = graph::erdos_renyi_gnp(n, 0.5, rng);
    if (g.num_edges() == 0) continue;
    std::vector<int> perm(n);
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    for (int v = n - 1; v > 0; --v) {
      const auto other = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(v) + 1));
      std::swap(perm[static_cast<std::size_t>(v)], perm[other]);
    }
    graph::Graph relabeled(n);
    for (const graph::Edge& e : g.edges()) {
      relabeled.add_edge(perm[static_cast<std::size_t>(e.u)],
                         perm[static_cast<std::size_t>(e.v)], e.weight);
    }
    for (int p : {1, 2}) {
      const core::MaxCutQaoa base(g, p);
      const core::MaxCutQaoa shuffled(relabeled, p);
      const std::vector<double> params = core::random_angles(p, rng);
      EXPECT_NEAR(base.expectation(params), shuffled.expectation(params),
                  1e-10)
          << "trial=" << trial << " p=" << p;
    }
  }
}

TEST_P(SimulatorPathSweep, EnergyInvariantUnderAngleSymmetryShifts) {
  // For an integral cut spectrum, gamma -> gamma + 2*pi leaves every
  // phase exp(-i*gamma*C(z)) unchanged.  beta -> beta + pi appends
  // RX(pi) = -iX on every qubit; X^(x)n propagates through the later
  // layers because C is invariant under flipping every bit (a cut and
  // its complement cut the same edges), so <C> is unchanged as well.
  Rng rng(0xCD34);
  const graph::Graph graphs[] = {graph::cycle_graph(7),
                                 graph::complete_graph(5),
                                 graph::erdos_renyi_gnp(7, 0.6, rng)};
  for (const graph::Graph& g : graphs) {
    if (g.num_edges() == 0) continue;
    for (int p : {1, 2}) {
      const core::MaxCutQaoa instance(g, p);
      ASSERT_TRUE(instance.has_integer_spectrum());
      const std::vector<double> params = core::random_angles(p, rng);
      const double base = instance.expectation(params);

      // Shift every gamma by 2*pi and every beta by pi.
      std::vector<double> shifted = params;
      for (int i = 0; i < p; ++i) {
        shifted[static_cast<std::size_t>(i)] += 2.0 * M_PI;
        shifted[static_cast<std::size_t>(p + i)] += M_PI;
      }
      EXPECT_NEAR(instance.expectation(shifted), base, 1e-9) << "p=" << p;

      // A single mid-circuit beta shift must also be invariant (the
      // X^(x)n commutes through every later layer independently).
      std::vector<double> one_beta = params;
      one_beta[static_cast<std::size_t>(p)] += M_PI;
      EXPECT_NEAR(instance.expectation(one_beta), base, 1e-9) << "p=" << p;
    }
  }
}

TEST_P(SimulatorPathSweep, ScaledWeightsShrinkTheGammaPeriod) {
  // With every weight scaled by c, the spectrum is c * integers, so the
  // gamma period contracts from 2*pi to 2*pi/c (the "2*pi/scale"
  // symmetry); the beta period stays pi as above.
  Rng rng(0xEF56);
  const double scale = 2.5;
  graph::Graph g(6);
  const graph::Graph cycle = graph::cycle_graph(6);
  for (const graph::Edge& e : cycle.edges()) g.add_edge(e.u, e.v, scale);
  for (int p : {1, 2}) {
    const core::MaxCutQaoa instance(g, p);
    const std::vector<double> params = core::random_angles(p, rng);
    std::vector<double> shifted = params;
    for (int i = 0; i < p; ++i) {
      shifted[static_cast<std::size_t>(i)] += 2.0 * M_PI / scale;
      shifted[static_cast<std::size_t>(p + i)] += M_PI;
    }
    EXPECT_NEAR(instance.expectation(shifted), instance.expectation(params),
                1e-9)
        << "p=" << p;
  }
}

TEST_P(SimulatorPathSweep, NormPreservedOverDeepCircuits) {
  // Unitarity holds on every path; the small qubit counts force the
  // vector kernels through their remainder lanes (dim 2 and 4 are below
  // one full AVX-512 vector of amplitudes).
  Rng rng(0x0112);
  for (int n : {1, 2, 3, 5, 9}) {
    quantum::Statevector sv = quantum::Statevector::uniform(n);
    std::vector<double> diag(sv.dimension());
    for (double& d : diag) d = rng.uniform(-4.0, 4.0);
    for (int layer = 0; layer < 6; ++layer) {
      sv.apply_qaoa_layer(diag, rng.uniform(-M_PI, M_PI),
                          rng.uniform(-M_PI, M_PI));
    }
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12) << "n=" << n;
  }
}

TEST_P(SimulatorPathSweep, OddLaneSizesMatchTheScalarTierBitwise) {
  // Dimensions 4..32 exercise every remainder-lane shape of the vector
  // kernels (partial 512-bit vectors, the lone 256-bit step, scalar
  // tails); the energies must still be bit-identical to the scalar
  // tier, not merely close.
  Rng rng(0x0DD5);
  for (int n : {2, 3, 4, 5}) {
    const graph::Graph g =
        n == 2 ? graph::complete_graph(2) : graph::cycle_graph(n);
    const core::MaxCutQaoa instance(g, 2);
    const std::vector<double> params = core::random_angles(2, rng);
    const double dispatched = instance.expectation(params);
    double scalar = 0.0;
    {
      const quantum::ScopedSimdTier scalar_guard(quantum::SimdTier::kScalar);
      scalar = instance.expectation(params);
    }
    EXPECT_EQ(dispatched, scalar) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, SimulatorPathSweep,
    ::testing::Combine(::testing::Values(quantum::LayerKernel::kFused,
                                         quantum::LayerKernel::kUnfused),
                       ::testing::Values(quantum::SimdTier::kScalar,
                                         quantum::SimdTier::kAvx2,
                                         quantum::SimdTier::kAvx512)),
    [](const ::testing::TestParamInfo<SimPathCase>& info) {
      const std::string kernel =
          std::get<0>(info.param) == quantum::LayerKernel::kFused ? "fused"
                                                                  : "unfused";
      return kernel + "_" + quantum::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace qaoaml
