// Tests for Ising models, diagonal Hamiltonians and the general Ising
// QAOA ansatz.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/ising_qaoa.hpp"
#include "core/qaoa_objective.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "ising/ising_model.hpp"

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

TEST(IsingQaoa, MatchesMaxCutQaoaOnUnweightedGraphs) {
  // The general Ising ansatz on the MaxCut model must produce the same
  // expectations as the dedicated MaxCut ansatz.
  Rng rng(11);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const core::MaxCutQaoa maxcut(g, 3);
  const core::IsingQaoa ising(ising::IsingModel::from_maxcut(g), 3);
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
  const core::IsingQaoa instance(model, 2);
  for (int trial = 0; trial < 6; ++trial) {
    const std::vector<double> params = core::random_angles(2, rng);
    EXPECT_NEAR(instance.expectation(params),
                instance.expectation_gate_level(params), 1e-10);
  }
}

TEST(IsingQaoa, FieldsBreakTheCutSymmetry) {
  // With a strong field on one spin, the optimal assignment pins it;
  // QAOA must prefer states aligned with the field.
  ising::IsingModel model(3);
  model.set_field(0, 2.0);  // rewards s_0 = +1 (bit 0 = 0)
  model.add_coupling(1, 2, -1.0);
  const core::IsingQaoa instance(model, 2);
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
  EXPECT_GT(sv.expectation_z(0), 0.0);  // field-aligned on average
}

TEST(IsingQaoa, ZeroAnglesGiveUniformAverage) {
  ising::IsingModel model(4);
  model.add_coupling(0, 2, 0.9);
  model.set_field(3, 0.2);
  const core::IsingQaoa instance(model, 1);
  // Uniform state: <Z> = 0 for every spin, so only the constant remains.
  const std::vector<double> zeros(2, 0.0);
  EXPECT_NEAR(instance.expectation(zeros), model.constant(), 1e-10);
}

TEST(IsingQaoa, AnsatzSkipsZeroFields) {
  ising::IsingModel model(3);
  model.add_coupling(0, 1, 1.0);
  const quantum::Circuit with_zero_fields = core::build_ising_ansatz(model, 1);
  model.set_field(2, 0.5);
  const quantum::Circuit with_field = core::build_ising_ansatz(model, 1);
  EXPECT_EQ(with_field.count(quantum::GateKind::kRz),
            with_zero_fields.count(quantum::GateKind::kRz) + 1);
}

}  // namespace
}  // namespace qaoaml
