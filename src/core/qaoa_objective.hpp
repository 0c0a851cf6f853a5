// The QAOA cost-expectation objective for MaxCut.
//
// One instance = (problem graph, circuit depth p).  Every optimizer
// iteration evaluates <psi(gamma, beta)| C |psi(gamma, beta)> where C is
// the diagonal MaxCut cost operator; the classical loop *maximizes* this
// expectation, so objective() exposes its negative for the minimizers.
//
// One evaluation path: each QAOA stage — phase separator exp(-i gamma C)
// and RX(beta) mixer — is one fused layer, a few blocked sweeps via
// Statevector::apply_qaoa_layer* (see quantum/fused_kernels.hpp).  For
// unweighted graphs the cut spectrum is integral, so the phase
// separator collapses to a precomputed power table (exp(-i gamma)^C(z)).
// The tests check this path against an unfused layer sequence and a
// gate-by-gate CNOT/RZ/RX ansatz simulation (tests/support).
#ifndef QAOAML_CORE_QAOA_OBJECTIVE_HPP
#define QAOAML_CORE_QAOA_OBJECTIVE_HPP

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/eval_spec.hpp"
#include "graph/graph.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "optim/types.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml::core {

/// A MaxCut-QAOA problem instance of fixed depth.
class MaxCutQaoa {
 public:
  /// Requires a graph with >= 1 edge and at most quantum::kMaxQubits
  /// nodes, and depth >= 1; checked before the 2^n cut table is built.
  MaxCutQaoa(graph::Graph g, int depth);

  int depth() const { return depth_; }
  int num_qubits() const { return graph_.num_nodes(); }
  std::size_t num_parameters() const;
  const graph::Graph& problem_graph() const { return graph_; }
  const ising::DiagonalHamiltonian& hamiltonian() const { return hamiltonian_; }

  /// Exact MaxCut optimum (brute force), the AR denominator.
  double max_cut_value() const { return max_cut_; }

  /// The paper's optimization box for this depth.
  optim::Bounds bounds() const;

  /// True when every cut value is an integer (unweighted graphs); the
  /// layer then uses the power-table phase separator.
  bool has_integer_spectrum() const { return integral_; }

  /// |psi(gamma, beta)>.
  quantum::Statevector state(std::span<const double> params) const;

  /// |psi(gamma, beta)> written into `workspace`, reusing its
  /// amplitude buffer (no allocation when the dimension matches).  This
  /// is the batch-evaluation hot path.
  void state_into(quantum::Statevector& workspace,
                  std::span<const double> params) const;

  /// <C> of the prepared state.
  double expectation(std::span<const double> params) const;

  /// <C> evaluated in `workspace` — identical value to expectation(),
  /// without the per-call 2^n allocation.
  double expectation_using(quantum::Statevector& workspace,
                           std::span<const double> params) const;

  /// Finite-shot estimate of <C> (Born-rule sampling).  Convenience
  /// wrapper over sampled_expectation_using with private workspaces —
  /// one 2^n statevector + one 2^n CDF allocation per call.
  double sampled_expectation(std::span<const double> params, int shots,
                             Rng& rng) const;

  /// Finite-shot estimate of <C> reusing caller-owned workspaces (no
  /// allocation when capacities match): prepares |psi> in `workspace`,
  /// builds the Born-rule CDF once in `cdf_workspace` (serial prefix
  /// sum), then draws `shots` basis states by CDF inversion — O(2^n +
  /// shots * n) instead of the naive O(shots * 2^n) scan.  The estimate
  /// is a pure function of (params, shots, rng state): bit-identical
  /// across QAOAML_THREADS, shard counts, and batch positions.
  double sampled_expectation_using(quantum::Statevector& workspace,
                                   std::vector<double>& cdf_workspace,
                                   std::span<const double> params, int shots,
                                   Rng& rng) const;

  /// <C> under `spec`: expectation_using in exact mode (rng untouched);
  /// in sampled mode, `spec.averaging` repeated `spec.shots`-shot
  /// estimates averaged, drawn sequentially from `rng`.  Validates the
  /// spec (hostile shot counts throw).
  double evaluate_using(quantum::Statevector& workspace,
                        std::vector<double>& cdf_workspace,
                        std::span<const double> params, const EvalSpec& spec,
                        Rng& rng) const;

  /// expectation / max_cut_value.
  double approximation_ratio(std::span<const double> params) const;

  /// Minimization objective: -<C>.  The returned callable references
  /// this instance, which must outlive it.  Stateless, so one callable
  /// may be shared across threads.
  optim::ObjectiveFn objective() const;

  /// Minimization objective backed by a private reusable statevector
  /// workspace: repeated calls make no 2^n allocations.  Copies of the
  /// returned callable share one workspace — create one callable per
  /// thread (optimizer run) instead of sharing across threads.
  optim::ObjectiveFn buffered_objective() const;

  /// Minimization objective under `spec`.  Exact mode returns
  /// buffered_objective().  Sampled mode owns private statevector/CDF
  /// workspaces plus a private measurement stream seeded with
  /// `stream_seed`: SeedPolicy::kStream advances the stream call to
  /// call (fresh noise), kPerCall re-seeds every call (common random
  /// numbers — a deterministic noisy surrogate).  Copies share state:
  /// one callable per optimizer run, not across threads.
  optim::ObjectiveFn buffered_objective(const EvalSpec& spec,
                                        std::uint64_t stream_seed) const;

 private:
  graph::Graph graph_;
  int depth_;
  ising::DiagonalHamiltonian hamiltonian_;
  double max_cut_ = 0.0;

  bool integral_ = false;
  std::vector<int> int_diagonal_;  // cut values as integers
  int max_int_value_ = 0;
};

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_QAOA_OBJECTIVE_HPP
