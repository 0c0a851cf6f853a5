// Tests for the Statevector's construction, validation and readout, and
// for the test-side gate oracle it is checked against: gate algebra,
// the serial gate loops (support/gates.hpp) and the circuit IR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "quantum/simd_kernels.hpp"
#include "quantum/statevector.hpp"
#include "support/circuit.hpp"
#include "support/gates.hpp"

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
  EXPECT_NEAR(norm(sv.amplitudes()), 1.0, kTol);
}

TEST(Statevector, RejectsBadSizes) {
  EXPECT_THROW(Statevector(0), InvalidArgument);
  EXPECT_THROW(Statevector(27), InvalidArgument);
  EXPECT_THROW(Statevector::from_amplitudes({{1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}),
               InvalidArgument);
}

TEST(Statevector, UniformMatchesHadamardLayer) {
  Amplitudes via_gates = zero_state(4);
  for (int q = 0; q < 4; ++q) apply_gate(via_gates, gates::hadamard(), q);
  const Statevector direct = Statevector::uniform(4);
  EXPECT_NEAR(std::abs(inner_product(via_gates, direct.amplitudes())), 1.0,
              kTol);
}

TEST(Statevector, XFlipsTargetBit) {
  Amplitudes sv = zero_state(2);
  apply_gate(sv, gates::pauli_x(), 0);
  EXPECT_NEAR(std::norm(sv[1]), 1.0, kTol);
  apply_gate(sv, gates::pauli_x(), 1);
  EXPECT_NEAR(std::norm(sv[3]), 1.0, kTol);
}

TEST(Statevector, CnotTruthTable) {
  // |10> -> |11> (control qubit 1 set flips target 0).
  Amplitudes sv = zero_state(2);
  apply_gate(sv, gates::pauli_x(), 1);
  apply_cnot(sv, 1, 0);
  EXPECT_NEAR(std::norm(sv[3]), 1.0, kTol);
  // Control clear: nothing happens.
  Amplitudes sv2 = zero_state(2);
  apply_cnot(sv2, 1, 0);
  EXPECT_NEAR(std::norm(sv2[0]), 1.0, kTol);
}

TEST(Statevector, CnotMatchesControlledX) {
  Amplitudes a = amplitudes_of(Statevector::uniform(3));
  Amplitudes b = a;
  apply_gate(a, gates::rz(0.7), 1);
  apply_gate(b, gates::rz(0.7), 1);
  apply_cnot(a, 1, 2);
  apply_controlled(b, gates::pauli_x(), 1, 2);
  EXPECT_NEAR(std::abs(inner_product(a, b)), 1.0, kTol);
}

TEST(Statevector, CzIsSymmetric) {
  Amplitudes a = amplitudes_of(Statevector::uniform(3));
  Amplitudes b = a;
  apply_gate(a, gates::ry(0.4), 0);
  apply_gate(b, gates::ry(0.4), 0);
  apply_cz(a, 0, 2);
  apply_cz(b, 2, 0);
  EXPECT_NEAR(std::abs(inner_product(a, b)), 1.0, kTol);
}

TEST(Statevector, RzFastPathMatchesGateMatrix) {
  Amplitudes a = amplitudes_of(Statevector::uniform(3));
  Amplitudes b = a;
  apply_rz(a, 1, 1.234);
  apply_gate(b, gates::rz(1.234), 1);
  for (std::size_t z = 0; z < a.size(); ++z) {
    EXPECT_NEAR(std::abs(a[z] - b[z]), 0.0, kTol);
  }
}

TEST(Statevector, DiagonalEvolutionMatchesRz) {
  // RZ(theta) = exp(-i theta Z / 2) phases bit 1 by exp(+i theta / 2); as
  // the phase of a layer, exp(-i gamma * bit), that is gamma = -theta, up
  // to the global phase exp(-i theta / 2).  A beta = 0 layer is the phase
  // alone (the mixer is the identity).
  const double theta = 0.77;
  Amplitudes a = amplitudes_of(Statevector::uniform(3));
  apply_rz(a, 0, theta);
  std::vector<double> diag(8);
  for (std::size_t z = 0; z < 8; ++z) diag[z] = static_cast<double>(z & 1);
  Statevector b = Statevector::uniform(3);
  b.apply_qaoa_layer(diag, -theta, 0.0);
  EXPECT_NEAR(std::abs(inner_product(a, b.amplitudes())), 1.0, kTol);
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
  a.apply_qaoa_layer_integral(idiag, 0.913, max_value, 0.4);
  b.apply_qaoa_layer(ddiag, 0.913, 0.4);
  for (std::size_t z = 0; z < 32; ++z) {
    EXPECT_NEAR(std::abs(a.amplitudes()[z] - b.amplitudes()[z]), 0.0, kTol);
  }
}

TEST(Statevector, DiagonalEvolutionRejectsWrongLength) {
  Statevector sv = Statevector::uniform(4);
  EXPECT_THROW(sv.apply_qaoa_layer(std::vector<double>(8, 0.0), 0.5, 0.1),
               InvalidArgument);
  EXPECT_THROW(sv.apply_qaoa_layer(std::vector<double>(32, 0.0), 0.5, 0.1),
               InvalidArgument);
  EXPECT_THROW(sv.expectation_diagonal(std::vector<double>(8, 0.0)),
               InvalidArgument);
  // A half layer reads half the diagonal, and needs two qubits.
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  EXPECT_THROW(sv.apply_qaoa_layer_mirrored(std::vector<double>(16, 0.0), 0.5,
                                            0.1, kernels),
               InvalidArgument);
  EXPECT_THROW(sv.expectation_diagonal_mirrored(std::vector<double>(16, 0.0)),
               InvalidArgument);
  EXPECT_THROW(sv.apply_qaoa_layer_mirrored(std::vector<double>(1, 0.0), 0.5,
                                            0.1, kernels, true),
               InvalidArgument);
}

TEST(Statevector, IntegralDiagonalEvolutionValidatesArguments) {
  Statevector sv = Statevector::uniform(4);
  // Length mismatch against the state dimension (16).
  EXPECT_THROW(
      sv.apply_qaoa_layer_integral(std::vector<int>(8, 0), 0.5, 1, 0.1),
      InvalidArgument);
  // Negative phase-table size.
  EXPECT_THROW(
      sv.apply_qaoa_layer_integral(std::vector<int>(16, 0), 0.5, -1, 0.1),
      InvalidArgument);
  // Entries outside [0, max_value] would read past the phase table, so
  // they must be rejected before any amplitude is modified.
  std::vector<int> too_big(16, 1);
  too_big[7] = 4;
  EXPECT_THROW(sv.apply_qaoa_layer_integral(too_big, 0.5, 3, 0.1),
               InvalidArgument);
  std::vector<int> negative(16, 1);
  negative[3] = -2;
  EXPECT_THROW(sv.apply_qaoa_layer_integral(negative, 0.5, 3, 0.1),
               InvalidArgument);
  // The rejected calls above must not have touched the state.
  for (const Complex& a : sv.amplitudes()) {
    EXPECT_EQ(a, Complex(0.25, 0.0));
  }
}

TEST(Statevector, ProbabilitiesSumToOne) {
  Rng rng(7);
  Amplitudes amps = amplitudes_of(Statevector::uniform(4));
  apply_gate(amps, gates::rx(rng.uniform(0, 3.0)), 2);
  apply_cnot(amps, 0, 3);
  const std::vector<double> probs =
      Statevector::from_amplitudes(amps).probabilities();
  double total = 0.0;
  for (const double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, kTol);
}

TEST(Statevector, ExpectationZOnBasisStates) {
  Amplitudes sv = zero_state(2);
  EXPECT_NEAR(expectation_z(sv, 0), 1.0, kTol);
  apply_gate(sv, gates::pauli_x(), 0);
  EXPECT_NEAR(expectation_z(sv, 0), -1.0, kTol);
  EXPECT_NEAR(expectation_z(sv, 1), 1.0, kTol);
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
  Amplitudes amps = zero_state(1);
  apply_gate(amps, gates::ry(2.0 * std::acos(std::sqrt(0.8))), 0);
  // P(0) = 0.8 by construction.
  std::vector<double> cdf;
  Statevector::from_amplitudes(amps).cumulative_probabilities(cdf);
  Rng rng(11);
  int zeros = 0;
  const int shots = 50000;
  for (int shot = 0; shot < shots; ++shot) {
    zeros += Statevector::sample_cdf(cdf, rng.uniform()) == 0;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / shots, 0.8, 0.01);
}

TEST(Statevector, InnerProductDetectsOrthogonality) {
  const Amplitudes a = zero_state(2);  // |00>
  Amplitudes b = zero_state(2);
  apply_gate(b, gates::pauli_x(), 0);  // |01>
  EXPECT_NEAR(std::abs(inner_product(a, b)), 0.0, kTol);
  EXPECT_NEAR(std::abs(inner_product(a, a)), 1.0, kTol);
}

/// Norm preservation across random circuits for several qubit counts.
class NormPreservationTest : public ::testing::TestWithParam<int> {};

TEST_P(NormPreservationTest, RandomCircuitKeepsUnitNorm) {
  const int qubits = GetParam();
  Rng rng(static_cast<std::uint64_t>(qubits));
  Amplitudes sv = amplitudes_of(Statevector::uniform(qubits));
  for (int step = 0; step < 50; ++step) {
    const int q = static_cast<int>(rng.uniform_int(qubits));
    switch (rng.uniform_int(5)) {
      case 0: apply_gate(sv, gates::rx(rng.uniform(0, 6.28)), q); break;
      case 1: apply_gate(sv, gates::ry(rng.uniform(0, 6.28)), q); break;
      case 2: apply_rz(sv, q, rng.uniform(0, 6.28)); break;
      case 3: {
        const int r = static_cast<int>(rng.uniform_int(qubits));
        if (r != q) apply_cnot(sv, q, r);
        break;
      }
      default: apply_gate(sv, gates::hadamard(), q); break;
    }
  }
  EXPECT_NEAR(norm(sv), 1.0, 1e-10);
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

  Amplitudes manual = zero_state(2);
  apply_gate(manual, gates::hadamard(), 0);
  apply_cnot(manual, 0, 1);
  apply_gate(manual, gates::rx(0.8), 1);
  EXPECT_NEAR(std::abs(inner_product(via_circuit.amplitudes(), manual)), 1.0,
              kTol);
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
