// Tests for Ising models, diagonal Hamiltonians and QAOA over a general
// Ising cost (core::DiagonalQaoa on the model's diagonal).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/eval_spec.hpp"
#include "core/qaoa_objective.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "ising/ising_model.hpp"
#include "support/diagonal_reference.hpp"
#include "support/gates.hpp"
#include "support/qaoa_reference.hpp"

namespace qaoaml::ising {
namespace {

TEST(IsingModel, EnergyOfFieldsOnly) {
  IsingModel m(2);
  m.set_field(0, 1.0);
  m.set_field(1, -2.0);
  // bits 00 -> s = (+1, +1): 1 - 2 = -1.
  EXPECT_DOUBLE_EQ(m.energy(0b00), -1.0);
  // bits 01 -> s = (-1, +1): -1 - 2 = -3.
  EXPECT_DOUBLE_EQ(m.energy(0b01), -3.0);
  // bits 10 -> s = (+1, -1): 1 + 2 = 3.
  EXPECT_DOUBLE_EQ(m.energy(0b10), 3.0);
}

TEST(IsingModel, EnergyOfCouplingsOnly) {
  IsingModel m(2);
  m.add_coupling(0, 1, 1.5);
  EXPECT_DOUBLE_EQ(m.energy(0b00), 1.5);   // aligned
  EXPECT_DOUBLE_EQ(m.energy(0b01), -1.5);  // anti-aligned
  EXPECT_DOUBLE_EQ(m.energy(0b11), 1.5);
}

TEST(IsingModel, ConstantShiftsEverything) {
  IsingModel m(1);
  m.set_constant(7.0);
  EXPECT_DOUBLE_EQ(m.energy(0), 7.0);
  EXPECT_DOUBLE_EQ(m.energy(1), 7.0);
}

TEST(IsingModel, DiagonalMatchesPointwiseEnergy) {
  Rng rng(3);
  IsingModel m(4);
  m.set_constant(0.5);
  for (int i = 0; i < 4; ++i) m.set_field(i, rng.normal());
  m.add_coupling(0, 1, rng.normal());
  m.add_coupling(2, 3, rng.normal());
  m.add_coupling(0, 3, rng.normal());
  const std::vector<double> diag = m.diagonal();
  ASSERT_EQ(diag.size(), 16u);
  for (std::uint64_t z = 0; z < 16; ++z) {
    EXPECT_NEAR(diag[z], m.energy(z), 1e-12);
  }
}

TEST(IsingModel, FromMaxcutEnergyEqualsCutValue) {
  Rng rng(5);
  const graph::Graph g = graph::erdos_renyi_gnp(7, 0.5, rng);
  const IsingModel m = IsingModel::from_maxcut(g);
  for (std::uint64_t z = 0; z < 128; z += 7) {
    EXPECT_NEAR(m.energy(z), graph::cut_value(g, z), 1e-12);
  }
}

TEST(IsingModel, ValidatesArguments) {
  EXPECT_THROW(IsingModel(0), InvalidArgument);
  IsingModel m(2);
  EXPECT_THROW(m.set_field(2, 1.0), InvalidArgument);
  EXPECT_THROW(m.add_coupling(0, 0, 1.0), InvalidArgument);
  EXPECT_THROW(m.add_coupling(0, 2, 1.0), InvalidArgument);
}

TEST(DiagonalHamiltonian, WrapsExplicitDiagonal) {
  const DiagonalHamiltonian h(std::vector<double>{0.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(h.num_qubits(), 2);
  EXPECT_DOUBLE_EQ(h.max_value(), 3.0);
  EXPECT_DOUBLE_EQ(h.min_value(), 0.0);
  EXPECT_EQ(h.argmax(), 3u);
}

TEST(DiagonalHamiltonian, RejectsNonPowerOfTwo) {
  EXPECT_THROW(DiagonalHamiltonian(std::vector<double>{1.0, 2.0, 3.0}),
               InvalidArgument);
  EXPECT_THROW(DiagonalHamiltonian(std::vector<double>{1.0}), InvalidArgument);
}

TEST(DiagonalHamiltonian, MaxcutMatchesBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::Graph g = graph::erdos_renyi_gnp(8, 0.5, rng);
    const DiagonalHamiltonian h = DiagonalHamiltonian::maxcut(g);
    EXPECT_DOUBLE_EQ(h.max_value(), graph::max_cut_brute_force(g).value);
    EXPECT_DOUBLE_EQ(h.min_value(), 0.0);  // empty cut always exists
  }
}

TEST(DiagonalHamiltonian, FromIsingMatchesModelDiagonal) {
  IsingModel m(3);
  m.set_field(1, 0.3);
  m.add_coupling(0, 2, -0.7);
  const DiagonalHamiltonian h = DiagonalHamiltonian::from_ising(m);
  const std::vector<double> diag = m.diagonal();
  for (std::uint64_t z = 0; z < 8; ++z) {
    EXPECT_DOUBLE_EQ(h.value(z), diag[z]);
  }
}

TEST(IsingModel, DiagonalBitIdenticalToTermByTermOracle) {
  // Fractional fields (some exactly zero, so skipped), repeated and
  // negative couplings, sizes from one chunk to many parallel blocks.
  Rng rng(12);
  for (const int n : {1, 3, 12, 13, 16}) {
    IsingModel m(n);
    m.set_constant(rng.uniform(-3.0, 3.0));
    for (int i = 0; i < n; ++i) {
      if (rng.uniform() < 0.7) m.set_field(i, rng.uniform(-1.5, 1.5));
    }
    for (int k = 0; n >= 2 && k < 3 * n; ++k) {
      const int i = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      const int j = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      if (i != j) m.add_coupling(i, j, rng.uniform(-2.0, 2.0));
    }
    const std::vector<double> expected = oracle::ising_diagonal_term_by_term(m);
    for (const int threads : {1, 3, 8}) {
      const ScopedThreadCount scoped(threads);
      const std::vector<double> diag = m.diagonal();
      ASSERT_EQ(diag.size(), expected.size());
      std::size_t mismatches = 0;
      for (std::size_t z = 0; z < diag.size(); ++z) {
        if (std::bit_cast<std::uint64_t>(diag[z]) !=
            std::bit_cast<std::uint64_t>(expected[z])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(DiagonalHamiltonian, ArgmaxAchievesMaxValue) {
  Rng rng(11);
  const graph::Graph g = graph::erdos_renyi_gnp(6, 0.5, rng);
  const DiagonalHamiltonian h = DiagonalHamiltonian::maxcut(g);
  EXPECT_DOUBLE_EQ(h.value(h.argmax()), h.max_value());
}

}  // namespace
}  // namespace qaoaml::ising

namespace qaoaml {
namespace {

/// The depth-p QAOA instance of a general Ising model.
core::DiagonalQaoa ising_qaoa(const ising::IsingModel& model, int depth) {
  return core::DiagonalQaoa(ising::DiagonalHamiltonian::from_ising(model),
                            depth);
}

TEST(IsingQaoa, MatchesMaxCutQaoaOnUnweightedGraphs) {
  // The general Ising ansatz on the MaxCut model must produce the same
  // expectations as the dedicated MaxCut ansatz.
  Rng rng(11);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const core::MaxCutQaoa maxcut(g, 3);
  const core::DiagonalQaoa ising =
      ising_qaoa(ising::IsingModel::from_maxcut(g), 3);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> params = core::random_angles(3, rng);
    EXPECT_NEAR(maxcut.expectation(params), ising.expectation(params), 1e-9);
  }
}

TEST(IsingQaoa, GateAndFastPathsAgree) {
  Rng rng(13);
  ising::IsingModel model(5);
  model.set_constant(1.0);
  for (int i = 0; i < 5; ++i) model.set_field(i, rng.normal(0.0, 0.4));
  model.add_coupling(0, 1, 0.8);
  model.add_coupling(1, 3, -0.5);
  model.add_coupling(2, 4, 0.3);
  const core::DiagonalQaoa instance = ising_qaoa(model, 2);
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<double> params = core::random_angles(2, rng);
    EXPECT_NEAR(instance.expectation(params),
                oracle::gate_level_expectation(model, params), 1e-10);
  }
}

TEST(IsingQaoa, IntegralDiagonalKeepsTheGeneralLayer) {
  // The MaxCut model's diagonal is integral and non-negative, but only
  // MaxCutQaoa switches the power-table phase separator on: an Ising
  // instance keeps the general layer, so its bits do not move.
  Rng rng(23);
  const graph::Graph g = graph::erdos_renyi_gnp(8, 0.5, rng);
  const ising::IsingModel model = ising::IsingModel::from_maxcut(g);
  const core::DiagonalQaoa instance = ising_qaoa(model, 3);
  for (const double c : instance.hamiltonian().diagonal()) {
    ASSERT_EQ(c, std::round(c));
    ASSERT_GE(c, 0.0);
  }
  EXPECT_FALSE(instance.has_integer_spectrum());
  EXPECT_TRUE(core::MaxCutQaoa(g, 3).has_integer_spectrum());

  const std::vector<double>& diag = instance.hamiltonian().diagonal();
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<double> params = core::random_angles(3, rng);
    quantum::Statevector general = quantum::Statevector::uniform(8);
    for (int stage = 0; stage < 3; ++stage) {
      general.apply_qaoa_layer(diag, core::gamma_of(params, stage + 1),
                               core::beta_of(params, stage + 1));
    }
    EXPECT_EQ(instance.state(params).amplitudes(), general.amplitudes());
  }
}

TEST(IsingQaoa, FieldsBreakTheCutSymmetry) {
  // With a strong field on one spin, the optimal assignment pins it;
  // QAOA must prefer states aligned with the field.
  ising::IsingModel model(3);
  model.set_field(0, 2.0);  // rewards s_0 = +1 (bit 0 = 0)
  model.add_coupling(1, 2, -1.0);
  const core::DiagonalQaoa instance = ising_qaoa(model, 2);
  Rng rng(17);
  double best = -1e300;
  std::vector<double> best_params;
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<double> params = core::random_angles(2, rng);
    const double e = instance.expectation(params);
    if (e > best) {
      best = e;
      best_params = params;
    }
  }
  const quantum::Statevector sv = instance.state(best_params);
  EXPECT_GT(quantum::expectation_z(sv.amplitudes(), 0), 0.0);  // field-aligned on average
}

TEST(IsingQaoa, ZeroAnglesGiveUniformAverage) {
  ising::IsingModel model(4);
  model.add_coupling(0, 2, 0.9);
  model.set_field(3, 0.2);
  const core::DiagonalQaoa instance = ising_qaoa(model, 1);
  // Uniform state: <Z> = 0 for every spin, so only the constant remains.
  const std::vector<double> zeros(2, 0.0);
  EXPECT_NEAR(instance.expectation(zeros), model.constant(), 1e-10);
}

TEST(IsingQaoa, ObjectiveReusesWorkspacesWithTheSameBitsAcrossThreads) {
  // One objective() callable shared by concurrent callers, as
  // optim::multistart_minimize shares it, over a MaxCut instance (power
  // table) and an Ising instance (general layer).  Exact and
  // SeedPolicy::kPerCall values are pure functions of the angles.
  Rng rng(19);
  ising::IsingModel model(9);
  model.set_constant(0.5);
  for (int i = 0; i < 9; ++i) model.set_field(i, rng.normal(0.0, 0.4));
  for (int i = 0; i + 1 < 9; ++i) model.add_coupling(i, i + 1, rng.uniform(-1.0, 1.0));
  const core::DiagonalQaoa ising = ising_qaoa(model, 2);
  const core::MaxCutQaoa maxcut(graph::random_regular(10, 3, rng), 2);
  core::EvalSpec per_call = core::EvalSpec::sampled_with(256, 0, 2);
  per_call.seed_policy = core::SeedPolicy::kPerCall;
  constexpr std::uint64_t kStreamSeed = 77;

  std::vector<std::vector<double>> points;
  for (int k = 0; k < 16; ++k) points.push_back(core::random_angles(2, rng));
  for (const core::DiagonalQaoa* instance :
       {static_cast<const core::DiagonalQaoa*>(&maxcut), &ising}) {
    for (const core::EvalSpec& spec : {core::EvalSpec::exact(), per_call}) {
      const bool sampled = spec.sampled();
      std::vector<double> expected;
      quantum::Statevector workspace(3);
      std::vector<double> cdf;
      for (const std::vector<double>& point : points) {
        Rng stream(kStreamSeed);
        expected.push_back(
            -instance->evaluate_using(workspace, cdf, point, spec, stream));
      }
      EXPECT_EQ(workspace.num_qubits(), instance->num_qubits());
      if (!sampled) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      -instance->expectation(points[0])),
                  std::bit_cast<std::uint64_t>(expected[0]));
      }

      const optim::ObjectiveFn objective =
          instance->objective(spec, kStreamSeed);
      const ScopedThreadCount threads(4);
      for (int round = 0; round < 3; ++round) {
        std::vector<double> values(points.size());
        parallel_for(points.size(),
                     [&](std::size_t k) { values[k] = objective(points[k]); });
        for (std::size_t k = 0; k < points.size(); ++k) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(values[k]),
                    std::bit_cast<std::uint64_t>(expected[k]))
              << "qubits " << instance->num_qubits() << " sampled " << sampled
              << " round " << round << " point " << k;
        }
      }
    }

    // SeedPolicy::kStream: concurrent calls take whole blocks of the one
    // stream in lock order, so on one point they produce the sequential
    // values in some order.
    const core::EvalSpec stream_spec = core::EvalSpec::sampled_with(256, 0, 2);
    const optim::ObjectiveFn sequential =
        instance->objective(stream_spec, kStreamSeed);
    std::vector<double> expected(points.size());
    for (double& value : expected) value = sequential(points[0]);
    const optim::ObjectiveFn shared =
        instance->objective(stream_spec, kStreamSeed);
    std::vector<double> values(points.size());
    {
      const ScopedThreadCount threads(4);
      parallel_for(points.size(),
                   [&](std::size_t k) { values[k] = shared(points[0]); });
    }
    std::sort(expected.begin(), expected.end());
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, expected) << "qubits " << instance->num_qubits();
  }
}

TEST(IsingQaoa, AnsatzSkipsZeroFields) {
  ising::IsingModel model(3);
  model.add_coupling(0, 1, 1.0);
  const quantum::Circuit with_zero_fields =
      oracle::build_ising_ansatz(model, 1);
  model.set_field(2, 0.5);
  const quantum::Circuit with_field = oracle::build_ising_ansatz(model, 1);
  EXPECT_EQ(with_field.count(quantum::GateKind::kRz),
            with_zero_fields.count(quantum::GateKind::kRz) + 1);
}

}  // namespace
}  // namespace qaoaml
