// Test-side reference oracle for the QAOA state preparation.
//
// The library prepares every QAOA state with the fused layer kernel
// (Statevector::apply_qaoa_layer*).  The tests check it against two
// independent constructions built here over a plain amplitude vector:
//  - the unfused path: per stage, the diagonal phase exp(-i gamma C)
//    (the dispatched phase_general / phase_integral kernel of
//    quantum/simd_kernels.hpp over the whole vector) and then one serial
//    RX(beta) gate pass per qubit (support/gates.hpp);
//  - the gate-level path: the explicit ansatz circuit of Fig. 1(a),
//    simulated gate by gate from |0...0> (support/circuit.hpp).
// Both return their result as a Statevector (from_amplitudes), so the
// tests read it with the library's own expectation and accessors.
//
// MaxCut ansatz layout per stage i (1-based):
//   phase separation: for every edge (u, v) with weight w:
//     CNOT(u, v); RZ(v, -w * gamma_i); CNOT(u, v)
//   (equal to exp(+i gamma_i w Z_u Z_v / 2), i.e. exp(-i gamma_i C) up to
//   a global phase for the MaxCut cost C)
//   mixing: RX(beta_i) = exp(-i beta_i X / 2) on every qubit (the
//   paper's convention; beta in [0, pi] is one mixer period).
// The general Ising ansatz adds an RZ layer for the linear fields:
//   per stage i:  for each coupling (u, v, J): CNOT, RZ(2*J*gamma_i), CNOT
//                 for each field (u, h):       RZ(2*h*gamma_i)
//                 mixer: RX(beta_i) on every qubit
// which equals exp(-i gamma_i * (H - const)) up to a global phase when
// the Hamiltonian is written over Z operators (maximization objective).
// Both start with Hadamard on all qubits.
#ifndef QAOAML_TESTS_SUPPORT_QAOA_REFERENCE_HPP
#define QAOAML_TESTS_SUPPORT_QAOA_REFERENCE_HPP

#include <span>
#include <vector>

#include "core/qaoa_objective.hpp"
#include "graph/graph.hpp"
#include "ising/ising_model.hpp"
#include "quantum/statevector.hpp"
#include "support/circuit.hpp"

namespace qaoaml::oracle {

/// Builds the depth-p MaxCut ansatz over `g`.  The circuit references
/// 2p external parameters in the canonical [gammas, betas] layout.
quantum::Circuit build_maxcut_ansatz(const graph::Graph& g, int p);

/// Gate-count summary of an ansatz, for reporting.
struct AnsatzCost {
  std::size_t cnot_count = 0;
  std::size_t rz_count = 0;
  std::size_t rx_count = 0;
  std::size_t h_count = 0;
  int depth = 0;
};

/// Computes gate counts and schedule depth for the ansatz of (g, p).
AnsatzCost ansatz_cost(const graph::Graph& g, int p);

/// Builds the general Ising ansatz circuit described above.
quantum::Circuit build_ising_ansatz(const ising::IsingModel& model, int depth);

/// <C> via gate-by-gate simulation of the instance's explicit ansatz.
double gate_level_expectation(const core::MaxCutQaoa& instance,
                              std::span<const double> params);

/// <H> of `model` via gate-by-gate simulation of its depth-p Ising
/// ansatz (p = params.size() / 2).
double gate_level_expectation(const ising::IsingModel& model,
                              std::span<const double> params);

/// `state` after one unfused QAOA layer: amps[z] *= exp(-i gamma
/// diag[z]), then RX(beta) on every qubit as a separate gate pass.
quantum::Statevector unfused_layer(const quantum::Statevector& state,
                                   const std::vector<double>& diag,
                                   double gamma, double beta);

/// The same over an integer diagonal with entries in [0, max_value],
/// through the power table exp(-i gamma)^diag[z].
quantum::Statevector unfused_layer_integral(const quantum::Statevector& state,
                                            const std::vector<int>& diag,
                                            double gamma, int max_value,
                                            double beta);

/// |psi(gamma, beta)> of `instance` on the unfused path: the uniform
/// state, then per stage the diagonal phase (the power-table variant
/// when the cut spectrum is integral, as in state_into) and one RX gate
/// pass per qubit.
quantum::Statevector unfused_reference_state(const core::MaxCutQaoa& instance,
                                             std::span<const double> params);

}  // namespace qaoaml::oracle

#endif  // QAOAML_TESTS_SUPPORT_QAOA_REFERENCE_HPP
