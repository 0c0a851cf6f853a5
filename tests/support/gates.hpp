// Single-qubit gate matrices and serial gate loops (test side).
//
// The library builds QAOA states only through fused layers
// (quantum/fused_kernels.hpp).  The tests check those against circuits
// simulated gate by gate, and the loops below are that simulator: plain
// serial sweeps over a std::vector of amplitudes, sharing no code with
// the kernels they check.  Qubit q is bit q of the basis-state index,
// as in quantum::Statevector; a finished state goes back into the
// library through Statevector::from_amplitudes.
//
// Conventions: rotation gates are RX(t) = exp(-i t X / 2), RZ(t) =
// exp(-i t Z / 2), etc., matching the standard circuit-model convention
// (and QuTiP/Qiskit).  The QAOA mixing layer exp(-i beta X) is therefore
// RX(2*beta).
#ifndef QAOAML_TESTS_SUPPORT_GATES_HPP
#define QAOAML_TESTS_SUPPORT_GATES_HPP

#include <span>
#include <vector>

#include "quantum/complex.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml::quantum {

/// Dense 2x2 single-qubit unitary, row-major: m[row][col].
struct Gate1Q {
  Complex m[2][2];
};

namespace gates {

Gate1Q identity();
Gate1Q hadamard();
Gate1Q pauli_x();
Gate1Q pauli_y();
Gate1Q pauli_z();

/// exp(-i theta X / 2)
Gate1Q rx(double theta);
/// exp(-i theta Y / 2)
Gate1Q ry(double theta);
/// exp(-i theta Z / 2)
Gate1Q rz(double theta);
/// diag(1, exp(i phi))
Gate1Q phase(double phi);

/// Product a * b (apply b first).
Gate1Q multiply(const Gate1Q& a, const Gate1Q& b);

/// True when g^dagger g == I within `tol`.
bool is_unitary(const Gate1Q& g, double tol = 1e-12);

/// Max |a_ij - b_ij| ignoring a global phase (aligns the largest entry).
double distance_up_to_phase(const Gate1Q& a, const Gate1Q& b);

}  // namespace gates

/// The amplitudes the gate loops act on; the size must be a power of
/// two, and every qubit index must address a bit below it.
using Amplitudes = std::vector<Complex>;

/// |0...0> on `num_qubits` qubits.
Amplitudes zero_state(int num_qubits);

/// A copy of `state`'s amplitudes.
Amplitudes amplitudes_of(const Statevector& state);

/// Applies `gate` to `target`.
void apply_gate(Amplitudes& amps, const Gate1Q& gate, int target);

/// Applies `gate` to `target` where `control` is |1>.
void apply_controlled(Amplitudes& amps, const Gate1Q& gate, int control,
                      int target);

void apply_cnot(Amplitudes& amps, int control, int target);
void apply_cz(Amplitudes& amps, int a, int b);

/// RZ(theta) on `target` as a diagonal phase: exp(-i theta/2) where the
/// bit is 0, exp(+i theta/2) where it is 1.
void apply_rz(Amplitudes& amps, int target, double theta);

/// L2 norm.
double norm(std::span<const Complex> amps);

/// <a|b>; the lengths must match.
Complex inner_product(std::span<const Complex> a, std::span<const Complex> b);

/// <Z> on `target`: P(bit = 0) - P(bit = 1).
double expectation_z(std::span<const Complex> amps, int target);

}  // namespace qaoaml::quantum

#endif  // QAOAML_TESTS_SUPPORT_GATES_HPP
