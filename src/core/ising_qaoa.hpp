// QAOA for general Ising cost functions (fields + couplings), beyond
// unweighted MaxCut.
//
// The paper's study is MaxCut-only; this generalization covers the
// problems a downstream user actually brings (weighted partitioning
// objectives, balance penalties as linear fields, arbitrary QUBOs via
// the standard QUBO->Ising map).  The Ising cost is diagonal in the
// computational basis, so each stage is the same fused layer MaxCut
// uses: exp(-i gamma_i H) on the precomputed diagonal, then RX(beta_i)
// on every qubit (Statevector::apply_qaoa_layer).  The tests check it
// against the explicit CNOT/RZ/RX ansatz simulated gate by gate
// (tests/support/qaoa_reference.hpp).
#ifndef QAOAML_CORE_ISING_QAOA_HPP
#define QAOAML_CORE_ISING_QAOA_HPP

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "ising/ising_model.hpp"
#include "optim/types.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml::core {

/// A depth-p QAOA instance whose objective is to *maximize* the energy
/// of a general Ising model.
class IsingQaoa {
 public:
  IsingQaoa(ising::IsingModel model, int depth);

  int depth() const { return depth_; }
  int num_qubits() const { return model_.num_spins(); }
  std::size_t num_parameters() const;
  const ising::IsingModel& model() const { return model_; }
  const ising::DiagonalHamiltonian& hamiltonian() const { return hamiltonian_; }

  /// Maximum of the cost function (exact, by enumeration).
  double max_value() const { return max_value_; }

  /// The optimization box (gamma in [0, 2*pi], beta in [0, pi]).
  optim::Bounds bounds() const;

  /// |psi(gamma, beta)>, one fused layer per stage.
  quantum::Statevector state(std::span<const double> params) const;

  /// |psi(gamma, beta)> written into `workspace`, reusing its amplitude
  /// buffer (no allocation when the dimension matches).
  void state_into(quantum::Statevector& workspace,
                  std::span<const double> params) const;

  /// <H> of the prepared state.
  double expectation(std::span<const double> params) const;

  /// <H> evaluated in `workspace`: the same bits as expectation(),
  /// without the per-call 2^n allocation.
  double expectation_using(quantum::Statevector& workspace,
                           std::span<const double> params) const;

  /// expectation / max_value (assumes max_value > 0).
  double approximation_ratio(std::span<const double> params) const;

  /// Minimization objective (-<H>); references this instance, which
  /// must outlive it.  Calls reuse statevector workspaces shared by the
  /// callable's copies: one per concurrent caller, created on first use
  /// and freed with the last copy, so warm calls make no 2^n allocation
  /// and one callable may still be shared across threads.
  optim::ObjectiveFn objective() const;

 private:
  ising::IsingModel model_;
  int depth_;
  ising::DiagonalHamiltonian hamiltonian_;
  double max_value_ = 0.0;
};

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_ISING_QAOA_HPP
