// Tests for the statevector simulator: gate algebra, state evolution,
// measurement, and the circuit IR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "quantum/gates.hpp"
#include "quantum/statevector.hpp"
#include "support/circuit.hpp"

namespace qaoaml::quantum {
namespace {

constexpr double kTol = 1e-12;

TEST(Gates, AllNamedGatesAreUnitary) {
  EXPECT_TRUE(gates::is_unitary(gates::identity()));
  EXPECT_TRUE(gates::is_unitary(gates::hadamard()));
  EXPECT_TRUE(gates::is_unitary(gates::pauli_x()));
  EXPECT_TRUE(gates::is_unitary(gates::pauli_y()));
  EXPECT_TRUE(gates::is_unitary(gates::pauli_z()));
  EXPECT_TRUE(gates::is_unitary(gates::rx(0.7)));
  EXPECT_TRUE(gates::is_unitary(gates::ry(1.3)));
  EXPECT_TRUE(gates::is_unitary(gates::rz(2.1)));
  EXPECT_TRUE(gates::is_unitary(gates::phase(0.4)));
}

TEST(Gates, HadamardSquaresToIdentity) {
  const Gate1Q hh = gates::multiply(gates::hadamard(), gates::hadamard());
  EXPECT_LT(gates::distance_up_to_phase(hh, gates::identity()), kTol);
}

TEST(Gates, PauliRelations) {
  // X Y = i Z.
  const Gate1Q xy = gates::multiply(gates::pauli_x(), gates::pauli_y());
  EXPECT_LT(gates::distance_up_to_phase(xy, gates::pauli_z()), kTol);
  // H X H = Z.
  const Gate1Q hxh = gates::multiply(
      gates::hadamard(), gates::multiply(gates::pauli_x(), gates::hadamard()));
  EXPECT_LT(gates::distance_up_to_phase(hxh, gates::pauli_z()), kTol);
}

TEST(Gates, RotationAtPiMatchesPauli) {
  EXPECT_LT(gates::distance_up_to_phase(gates::rx(M_PI), gates::pauli_x()),
            kTol);
  EXPECT_LT(gates::distance_up_to_phase(gates::ry(M_PI), gates::pauli_y()),
            kTol);
  EXPECT_LT(gates::distance_up_to_phase(gates::rz(M_PI), gates::pauli_z()),
            kTol);
}

TEST(Gates, RotationsCompose) {
  // RZ(a) RZ(b) = RZ(a + b).
  const Gate1Q lhs = gates::multiply(gates::rz(0.3), gates::rz(0.9));
  EXPECT_LT(gates::distance_up_to_phase(lhs, gates::rz(1.2)), kTol);
}

TEST(Gates, PhaseEqualsRzUpToGlobalPhase) {
  EXPECT_LT(gates::distance_up_to_phase(gates::phase(0.8), gates::rz(0.8)),
            kTol);
}

TEST(Statevector, InitializesToGroundState) {
  const Statevector sv(3);
  EXPECT_EQ(sv.dimension(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0] - Complex{1.0, 0.0}), 0.0, kTol);
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(Statevector, RejectsBadSizes) {
  EXPECT_THROW(Statevector(0), InvalidArgument);
  EXPECT_THROW(Statevector(27), InvalidArgument);
  EXPECT_THROW(Statevector::from_amplitudes({{1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}),
               InvalidArgument);
}

TEST(Statevector, UniformMatchesHadamardLayer) {
  Statevector via_gates(4);
  via_gates.apply_hadamard_all();
  const Statevector direct = Statevector::uniform(4);
  EXPECT_NEAR(std::abs(via_gates.inner_product(direct)), 1.0, kTol);
}

TEST(Statevector, XFlipsTargetBit) {
  Statevector sv(2);
  sv.apply_gate(gates::pauli_x(), 0);
  EXPECT_NEAR(std::norm(sv.amplitudes()[1]), 1.0, kTol);
  sv.apply_gate(gates::pauli_x(), 1);
  EXPECT_NEAR(std::norm(sv.amplitudes()[3]), 1.0, kTol);
}

TEST(Statevector, CnotTruthTable) {
  // |10> -> |11> (control qubit 1 set flips target 0).
  Statevector sv(2);
  sv.apply_gate(gates::pauli_x(), 1);
  sv.apply_cnot(1, 0);
  EXPECT_NEAR(std::norm(sv.amplitudes()[3]), 1.0, kTol);
  // Control clear: nothing happens.
  Statevector sv2(2);
  sv2.apply_cnot(1, 0);
  EXPECT_NEAR(std::norm(sv2.amplitudes()[0]), 1.0, kTol);
}

TEST(Statevector, CnotMatchesControlledX) {
  Rng rng(3);
  Statevector a = Statevector::uniform(3);
  Statevector b = Statevector::uniform(3);
  a.apply_gate(gates::rz(0.7), 1);
  b.apply_gate(gates::rz(0.7), 1);
  a.apply_cnot(1, 2);
  b.apply_controlled(gates::pauli_x(), 1, 2);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 1.0, kTol);
}

TEST(Statevector, CzIsSymmetric) {
  Statevector a = Statevector::uniform(3);
  Statevector b = Statevector::uniform(3);
  a.apply_gate(gates::ry(0.4), 0);
  b.apply_gate(gates::ry(0.4), 0);
  a.apply_cz(0, 2);
  b.apply_cz(2, 0);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 1.0, kTol);
}

TEST(Statevector, RzFastPathMatchesGateMatrix) {
  Statevector a = Statevector::uniform(3);
  Statevector b = Statevector::uniform(3);
  a.apply_rz(1, 1.234);
  b.apply_gate(gates::rz(1.234), 1);
  for (std::size_t z = 0; z < a.dimension(); ++z) {
    EXPECT_NEAR(std::abs(a.amplitudes()[z] - b.amplitudes()[z]), 0.0, kTol);
  }
}

TEST(Statevector, DiagonalEvolutionMatchesRz) {
  // RZ(theta) = exp(-i theta Z / 2) phases bit 1 by exp(+i theta / 2); as
  // a diagonal evolution exp(-i angle * bit) that is angle = -theta, up
  // to the global phase exp(-i theta / 2).
  Statevector a = Statevector::uniform(3);
  Statevector b = Statevector::uniform(3);
  const double theta = 0.77;
  a.apply_rz(0, theta);
  std::vector<double> diag(8);
  for (std::size_t z = 0; z < 8; ++z) diag[z] = static_cast<double>(z & 1);
  b.apply_diagonal_evolution(diag, -theta);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 1.0, kTol);
}

TEST(Statevector, IntegralDiagonalEvolutionMatchesGeneric) {
  Rng rng(5);
  Statevector a = Statevector::uniform(5);
  Statevector b = Statevector::uniform(5);
  std::vector<int> idiag(32);
  std::vector<double> ddiag(32);
  int max_value = 0;
  for (std::size_t z = 0; z < 32; ++z) {
    idiag[z] = static_cast<int>(rng.uniform_int(9));
    ddiag[z] = static_cast<double>(idiag[z]);
    max_value = std::max(max_value, idiag[z]);
  }
  a.apply_diagonal_evolution_integral(idiag, 0.913, max_value);
  b.apply_diagonal_evolution(ddiag, 0.913);
  for (std::size_t z = 0; z < 32; ++z) {
    EXPECT_NEAR(std::abs(a.amplitudes()[z] - b.amplitudes()[z]), 0.0, kTol);
  }
}

TEST(Statevector, DiagonalEvolutionRejectsWrongLength) {
  Statevector sv = Statevector::uniform(4);
  EXPECT_THROW(sv.apply_diagonal_evolution(std::vector<double>(8, 0.0), 0.5),
               InvalidArgument);
  EXPECT_THROW(sv.apply_diagonal_evolution(std::vector<double>(32, 0.0), 0.5),
               InvalidArgument);
}

TEST(Statevector, IntegralDiagonalEvolutionValidatesArguments) {
  Statevector sv = Statevector::uniform(4);
  // Length mismatch against the state dimension (16).
  EXPECT_THROW(
      sv.apply_diagonal_evolution_integral(std::vector<int>(8, 0), 0.5, 1),
      InvalidArgument);
  // Negative phase-table size.
  EXPECT_THROW(
      sv.apply_diagonal_evolution_integral(std::vector<int>(16, 0), 0.5, -1),
      InvalidArgument);
  // Entries outside [0, max_value] would read past the phase table, so
  // they must be rejected before any amplitude is modified.
  std::vector<int> too_big(16, 1);
  too_big[7] = 4;
  EXPECT_THROW(sv.apply_diagonal_evolution_integral(too_big, 0.5, 3),
               InvalidArgument);
  std::vector<int> negative(16, 1);
  negative[3] = -2;
  EXPECT_THROW(sv.apply_diagonal_evolution_integral(negative, 0.5, 3),
               InvalidArgument);
  // The rejected calls above must not have corrupted the state.
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
  EXPECT_NEAR(sv.amplitudes()[0].real(), 0.25, kTol);
}

TEST(Statevector, ProbabilitiesSumToOne) {
  Rng rng(7);
  Statevector sv = Statevector::uniform(4);
  sv.apply_gate(gates::rx(rng.uniform(0, 3.0)), 2);
  sv.apply_cnot(0, 3);
  const std::vector<double> probs = sv.probabilities();
  double total = 0.0;
  for (const double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, kTol);
}

TEST(Statevector, ExpectationZOnBasisStates) {
  Statevector sv(2);
  EXPECT_NEAR(sv.expectation_z(0), 1.0, kTol);
  sv.apply_gate(gates::pauli_x(), 0);
  EXPECT_NEAR(sv.expectation_z(0), -1.0, kTol);
  EXPECT_NEAR(sv.expectation_z(1), 1.0, kTol);
}

TEST(Statevector, ExpectationDiagonalOnUniform) {
  const Statevector sv = Statevector::uniform(3);
  std::vector<double> diag(8);
  double mean = 0.0;
  for (std::size_t z = 0; z < 8; ++z) {
    diag[z] = static_cast<double>(z);
    mean += diag[z] / 8.0;
  }
  EXPECT_NEAR(sv.expectation_diagonal(diag), mean, kTol);
}

TEST(Statevector, SamplingFollowsBornRule) {
  Statevector sv(1);
  sv.apply_gate(gates::ry(2.0 * std::acos(std::sqrt(0.8))), 0);
  // P(0) = 0.8 by construction.
  Rng rng(11);
  int zeros = 0;
  const int shots = 50000;
  for (const std::uint64_t z : sv.sample(rng, shots)) zeros += (z == 0);
  EXPECT_NEAR(static_cast<double>(zeros) / shots, 0.8, 0.01);
}

TEST(Statevector, InnerProductDetectsOrthogonality) {
  Statevector a(2);  // |00>
  Statevector b(2);
  b.apply_gate(gates::pauli_x(), 0);  // |01>
  EXPECT_NEAR(std::abs(a.inner_product(b)), 0.0, kTol);
  EXPECT_NEAR(std::abs(a.inner_product(a)), 1.0, kTol);
}

/// Norm preservation across random circuits for several qubit counts.
class NormPreservationTest : public ::testing::TestWithParam<int> {};

TEST_P(NormPreservationTest, RandomCircuitKeepsUnitNorm) {
  const int qubits = GetParam();
  Rng rng(static_cast<std::uint64_t>(qubits));
  Statevector sv = Statevector::uniform(qubits);
  for (int step = 0; step < 50; ++step) {
    const int q = static_cast<int>(rng.uniform_int(qubits));
    switch (rng.uniform_int(5)) {
      case 0: sv.apply_gate(gates::rx(rng.uniform(0, 6.28)), q); break;
      case 1: sv.apply_gate(gates::ry(rng.uniform(0, 6.28)), q); break;
      case 2: sv.apply_rz(q, rng.uniform(0, 6.28)); break;
      case 3: {
        const int r = static_cast<int>(rng.uniform_int(qubits));
        if (r != q) sv.apply_cnot(q, r);
        break;
      }
      default: sv.apply_gate(gates::hadamard(), q); break;
    }
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(QubitCounts, NormPreservationTest,
                         ::testing::Values(1, 2, 3, 5, 8, 10));

TEST(Circuit, TracksParameterCount) {
  Circuit c(2);
  c.h(0);
  c.rx(1, ParamExpr::bound(3));
  EXPECT_EQ(c.num_parameters(), 4);
  c.rz(0, ParamExpr::constant(0.5));
  EXPECT_EQ(c.num_parameters(), 4);  // constants do not extend the vector
}

TEST(Circuit, ParamExprEvaluates) {
  const std::vector<double> params{2.0, 3.0};
  EXPECT_DOUBLE_EQ(ParamExpr::constant(1.5).evaluate(params), 1.5);
  EXPECT_DOUBLE_EQ(ParamExpr::bound(1, -2.0, 0.5).evaluate(params), -5.5);
  EXPECT_THROW(ParamExpr::bound(5).evaluate(params), InvalidArgument);
}

TEST(Circuit, SimulateMatchesManualGateSequence) {
  Circuit c(2);
  c.h(0);
  c.cnot(0, 1);
  c.rx(1, ParamExpr::bound(0, 2.0));
  const std::vector<double> params{0.4};
  const Statevector via_circuit = c.simulate(params);

  Statevector manual(2);
  manual.apply_gate(gates::hadamard(), 0);
  manual.apply_cnot(0, 1);
  manual.apply_gate(gates::rx(0.8), 1);
  EXPECT_NEAR(std::abs(via_circuit.inner_product(manual)), 1.0, kTol);
}

TEST(Circuit, BellStateHasPerfectCorrelation) {
  Circuit c(2);
  c.h(0);
  c.cnot(0, 1);
  const Statevector bell = c.simulate({});
  const std::vector<double> probs = bell.probabilities();
  EXPECT_NEAR(probs[0], 0.5, kTol);
  EXPECT_NEAR(probs[3], 0.5, kTol);
  EXPECT_NEAR(probs[1] + probs[2], 0.0, kTol);
}

TEST(Circuit, CountAndDepth) {
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.cnot(0, 1);
  c.rz(1, ParamExpr::constant(0.3));
  c.cnot(0, 1);
  EXPECT_EQ(c.count(GateKind::kH), 2u);
  EXPECT_EQ(c.count(GateKind::kCnot), 2u);
  EXPECT_EQ(c.count(GateKind::kRz), 1u);
  // Layering: {h0, h1} | cnot01 | rz1 | cnot01 -> depth 4.
  EXPECT_EQ(c.depth(), 4);
}

TEST(Circuit, AppendConcatenates) {
  Circuit a(2);
  a.h(0);
  Circuit b(2);
  b.cnot(0, 1);
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  Circuit wrong(3);
  EXPECT_THROW(a.append(wrong), InvalidArgument);
}

TEST(Circuit, ValidatesQubitIndices) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), InvalidArgument);
  EXPECT_THROW(c.cnot(0, 0), InvalidArgument);
  EXPECT_THROW(c.cnot(0, 5), InvalidArgument);
}

TEST(Circuit, ToStringListsGates) {
  Circuit c(2);
  c.h(0);
  c.rx(1, ParamExpr::bound(0, 2.0));
  c.cnot(0, 1);
  const std::string listing = c.to_string();
  EXPECT_NE(listing.find("h q0"), std::string::npos);
  EXPECT_NE(listing.find("rx q1"), std::string::npos);
  EXPECT_NE(listing.find("cnot q0, q1"), std::string::npos);
}

TEST(Circuit, UnbindParametersThrows) {
  Circuit c(1);
  c.rx(0, ParamExpr::bound(0));
  EXPECT_THROW(c.simulate({}), InvalidArgument);
}

}  // namespace
}  // namespace qaoaml::quantum
