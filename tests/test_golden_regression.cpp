// Golden regression fixtures for the QAOA energy.
//
// Each case pins <psi(gamma, beta)| C |psi(gamma, beta)> for a fixed
// (graph, depth, angles) triple to a reference value computed at the
// time the fused kernels landed (PR 2), when the fused, unfused, and
// gate-by-gate paths were cross-validated against each other.  Any
// kernel change that shifts an expectation beyond kGoldenTol breaks
// these tests with a message naming the case and the drift, which is
// the point: silent numerical regressions in fast paths must be loud.
// The library's fused layer is checked under every SIMD tier; the
// test-side unfused and gate-level references (tests/support) are
// checked against the same fixtures.
//
// If a change legitimately alters these values (it should not — they
// are exact physical quantities, not implementation artifacts), the
// fixtures must be regenerated and the change justified in review.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_ensemble.hpp"
#include "core/qaoa_objective.hpp"
#include "graph/generators.hpp"
#include "quantum/dispatch.hpp"
#include "support/qaoa_reference.hpp"

namespace qaoaml {
namespace {

/// Well above accumulated rounding (observed cross-path drift is 0 and
/// cross-compiler drift is ~1e-13), far below any real kernel bug.
constexpr double kGoldenTol = 1e-9;

struct GoldenCase {
  const char* name;
  graph::Graph (*make)();
  int depth;
  std::vector<double> params;  // [gammas..., betas...]
  double expected;
};

graph::Graph weighted_cycle6() {
  graph::Graph g(6);
  const graph::Graph cycle = graph::cycle_graph(6);
  for (const graph::Edge& e : cycle.edges()) g.add_edge(e.u, e.v, 2.5);
  return g;
}

graph::Graph er8_beef() {
  Rng rng(0xBEEF);
  return graph::erdos_renyi_gnp(8, 0.5, rng);
}

graph::Graph reg10d3_cafe() {
  Rng rng(0xCAFE);
  return graph::random_regular(10, 3, rng);
}

// One pinned-seed instance per core::GraphEnsemble family, sampled
// through core::sample_graph itself (not the underlying graph/
// generators), so drift anywhere in a family's sampling recipe — knob
// defaults, rejection loops, the mixed family's family draw — breaks
// the fixture, not just drift in the raw generators.
graph::Graph ensemble_case(core::GraphFamily family, std::uint64_t seed,
                           core::WeightKind weight = core::WeightKind::kUniform) {
  core::EnsembleConfig config;
  config.family = family;
  config.weight = weight;
  Rng rng(seed);
  return core::sample_graph(config, 8, rng);
}

graph::Graph ensemble_er() {
  return ensemble_case(core::GraphFamily::kErdosRenyi, 0x5EED01);
}
graph::Graph ensemble_regular() {
  return ensemble_case(core::GraphFamily::kRegular, 0x5EED02);
}
graph::Graph ensemble_weighted_uniform() {
  return ensemble_case(core::GraphFamily::kWeightedErdosRenyi, 0x5EED03);
}
graph::Graph ensemble_weighted_gaussian() {
  return ensemble_case(core::GraphFamily::kWeightedErdosRenyi, 0x5EED04,
                       core::WeightKind::kGaussian);
}
graph::Graph ensemble_small_world() {
  return ensemble_case(core::GraphFamily::kSmallWorld, 0x5EED05);
}
graph::Graph ensemble_mixed() {
  return ensemble_case(core::GraphFamily::kMixed, 0x5EED06);
}

// Reference values generated with the PR 2 cross-validated simulator
// (QAOAML_THREADS-independent by construction of the blocked kernels).
const GoldenCase kGoldenCases[] = {
    {"cycle6_p1", [] { return graph::cycle_graph(6); }, 1,
     {0.4, 0.7}, 4.060377549123769},
    {"cycle7_p2", [] { return graph::cycle_graph(7); }, 2,
     {0.35, 0.6, 0.45, 0.8}, 5.233482237420579},
    {"complete5_p2", [] { return graph::complete_graph(5); }, 2,
     {0.3, 0.9, 0.5, 0.2}, 5.920976255081808},
    {"star6_p1", [] { return graph::star_graph(6); }, 1,
     {0.55, 0.25}, 2.978699890527710},
    {"path7_p3", [] { return graph::path_graph(7); }, 3,
     {0.2, 0.4, 0.6, 0.3, 0.5, 0.7}, 4.599230801449126},
    {"er8_seed0xBEEF_p2", &er8_beef, 2,
     {0.42, 0.17, 0.33, 0.71}, 8.888489160692925},
    {"reg10d3_seed0xCAFE_p2", &reg10d3_cafe, 2,
     {0.37, 0.58, 0.29, 0.64}, 9.908040427040676},
    {"cycle6_weight2.5_p1", &weighted_cycle6, 1,
     {0.16, 0.7}, 10.150943872809416},
    // Per-family ensemble fixtures (PR 5): one pinned-seed instance per
    // core::GraphEnsemble family at p=2, fixed angles.  Reference
    // values computed with the PR 2 cross-validated simulator; a change
    // in any family's sampling recipe OR in the kernels shifts these.
    {"ensemble_er_seed0x5EED01_p2", &ensemble_er, 2,
     {0.42, 0.17, 0.33, 0.71}, 9.5659598761338334},
    {"ensemble_regular_seed0x5EED02_p2", &ensemble_regular, 2,
     {0.42, 0.17, 0.33, 0.71}, 7.8071877329951453},
    {"ensemble_weighted_uniform_seed0x5EED03_p2", &ensemble_weighted_uniform,
     2, {0.42, 0.17, 0.33, 0.71}, 4.8472419991355826},
    {"ensemble_weighted_gaussian_seed0x5EED04_p2", &ensemble_weighted_gaussian,
     2, {0.42, 0.17, 0.33, 0.71}, 10.737006336976691},
    {"ensemble_small_world_seed0x5EED05_p2", &ensemble_small_world, 2,
     {0.42, 0.17, 0.33, 0.71}, 5.670393984549059},
    {"ensemble_mixed_seed0x5EED06_p2", &ensemble_mixed, 2,
     {0.42, 0.17, 0.33, 0.71}, 5.4177887325276215},
};

// One pinned finite-shot estimate per ensemble family: 256 shots drawn
// from Rng(0x5407) by CDF inversion at the same p=2 angles.  These are
// EXACT fixtures (a fixed spec + stream is bit-deterministic by the
// EvalSpec contract), so the tolerance is bitwise zero: any drift in
// the state preparation, the prefix-sum CDF, the inversion search, or
// the xoshiro stream moves them.
struct GoldenSampledCase {
  const char* name;
  graph::Graph (*make)();
  double expected;
};

const GoldenSampledCase kGoldenSampledCases[] = {
    {"sampled_ensemble_er_seed0x5EED01", &ensemble_er, 9.59375},
    {"sampled_ensemble_regular_seed0x5EED02", &ensemble_regular, 7.66796875},
    {"sampled_ensemble_weighted_uniform_seed0x5EED03",
     &ensemble_weighted_uniform, 4.8210514565072122},
    {"sampled_ensemble_weighted_gaussian_seed0x5EED04",
     &ensemble_weighted_gaussian, 10.733057017458975},
    {"sampled_ensemble_small_world_seed0x5EED05", &ensemble_small_world,
     5.625},
    {"sampled_ensemble_mixed_seed0x5EED06", &ensemble_mixed, 5.34765625},
};

/// The library's one QAOA layer path.  It stays in the parameter tuple
/// because the test IDs print GetParam(), and the tuple keeps them
/// stable.
enum class LayerPath { kFused };

using GoldenPathCase = std::tuple<LayerPath, quantum::SimdTier>;

/// Every SIMD tier must reproduce the committed fixtures; tiers the CPU
/// lacks are skipped.
class GoldenRegression : public ::testing::TestWithParam<GoldenPathCase> {
 protected:
  void SetUp() override {
    const quantum::SimdTier tier = std::get<1>(GetParam());
    if (!quantum::simd_tier_supported(tier)) {
      GTEST_SKIP() << quantum::to_string(tier) << " unsupported on this CPU";
    }
    tier_guard_.emplace(tier);
  }

 private:
  std::optional<quantum::ScopedSimdTier> tier_guard_;
};

TEST_P(GoldenRegression, ExpectationsMatchCommittedFixtures) {
  for (const GoldenCase& c : kGoldenCases) {
    const core::MaxCutQaoa instance(c.make(), c.depth);
    const double actual = instance.expectation(c.params);
    const double drift = actual - c.expected;
    EXPECT_NEAR(actual, c.expected, kGoldenTol)
        << "Golden fixture '" << c.name << "' drifted: expected <C> = "
        << ::testing::PrintToString(c.expected) << ", got "
        << ::testing::PrintToString(actual) << " (drift " << drift
        << "). A kernel change moved a committed reference expectation; "
           "fix the kernel or regenerate the fixtures with justification.";
    // Beyond the committed decimal fixture, the dispatched tier must
    // agree with the scalar tier to the BIT — the simd_kernels.hpp
    // identity contract applied to every golden case.
    double scalar = 0.0;
    {
      const quantum::ScopedSimdTier scalar_guard(quantum::SimdTier::kScalar);
      scalar = instance.expectation(c.params);
    }
    EXPECT_EQ(actual, scalar)
        << "Golden fixture '" << c.name << "' is not bit-identical across "
        << "SIMD tiers: " << quantum::to_string(std::get<1>(GetParam()))
        << " diverged from scalar.";
  }
}

// The gate-by-gate ansatz simulation must reproduce the same fixtures:
// this catches regressions that corrupt the fused path and the circuit
// path in the same way only if both break identically, and otherwise
// localizes which layer drifted.
TEST(GoldenRegression, GateLevelPathMatchesFixtures) {
  for (const GoldenCase& c : kGoldenCases) {
    const core::MaxCutQaoa instance(c.make(), c.depth);
    const double actual = oracle::gate_level_expectation(instance, c.params);
    EXPECT_NEAR(actual, c.expected, kGoldenTol)
        << "Golden fixture '" << c.name
        << "' drifted on the gate-level path: expected <C> = "
        << ::testing::PrintToString(c.expected) << ", got "
        << ::testing::PrintToString(actual) << ".";
  }
}

// The unfused layer sequence (diagonal evolution + one RX gate pass per
// qubit) runs on the dispatched gate primitives, so it is checked
// against the fixtures on every tier this CPU supports.
TEST(GoldenRegression, UnfusedReferenceMatchesFixtures) {
  for (quantum::SimdTier tier :
       {quantum::SimdTier::kScalar, quantum::SimdTier::kAvx2,
        quantum::SimdTier::kAvx512}) {
    if (!quantum::simd_tier_supported(tier)) continue;
    const quantum::ScopedSimdTier guard(tier);
    for (const GoldenCase& c : kGoldenCases) {
      const core::MaxCutQaoa instance(c.make(), c.depth);
      const double actual =
          oracle::unfused_reference_state(instance, c.params)
              .expectation_diagonal(instance.hamiltonian().diagonal());
      EXPECT_NEAR(actual, c.expected, kGoldenTol)
          << "Golden fixture '" << c.name
          << "' drifted on the unfused reference path ("
          << quantum::to_string(tier) << "): expected <C> = "
          << ::testing::PrintToString(c.expected) << ", got "
          << ::testing::PrintToString(actual) << ".";
    }
  }
}

TEST_P(GoldenRegression, SampledExpectationsMatchCommittedFixturesBitwise) {
  // The sampled fixtures were committed from the scalar path; shot
  // sampling is bit-deterministic AND tier-independent by contract
  // (identical amplitudes -> identical CDF -> identical inversions), so
  // the comparison stays EXPECT_EQ on every dispatch tier.
  const core::EvalSpec spec = core::EvalSpec::sampled_with(256, 0x5407);
  const std::vector<double> params{0.42, 0.17, 0.33, 0.71};
  for (const GoldenSampledCase& c : kGoldenSampledCases) {
    const core::MaxCutQaoa instance(c.make(), 2);
    Rng rng(spec.seed);
    const double actual =
        instance.sampled_expectation(params, spec.shots, rng);
    EXPECT_EQ(actual, c.expected)
        << "Sampled golden fixture '" << c.name << "' drifted: expected "
        << ::testing::PrintToString(c.expected) << ", got "
        << ::testing::PrintToString(actual)
        << ". Sampling is bit-deterministic by contract — a change moved "
           "the state prep, the CDF, the inversion search, or the rng "
           "stream; fix it or regenerate with justification.";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, GoldenRegression,
    ::testing::Combine(::testing::Values(LayerPath::kFused),
                       ::testing::Values(quantum::SimdTier::kScalar,
                                         quantum::SimdTier::kAvx2,
                                         quantum::SimdTier::kAvx512)),
    [](const ::testing::TestParamInfo<GoldenPathCase>& info) {
      return std::string("fused_") +
             quantum::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace qaoaml
