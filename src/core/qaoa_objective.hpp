// The QAOA cost-expectation objective over a diagonal cost.
//
// QAOA is one algorithm over a cost C that is diagonal in the
// computational basis: each stage applies the phase separator
// exp(-i gamma C) and the RX(beta) mixer, and the objective is
// <C> = sum_z |psi_z|^2 C(z).  DiagonalQaoa is one instance = (diagonal
// cost, circuit depth p) and owns every evaluation of it; MaxCutQaoa
// adds only the problem graph, and a general Ising cost is
// DiagonalQaoa(DiagonalHamiltonian::from_ising(model), p).  The
// classical loop *maximizes* <C>, so objective() exposes its negative
// for the minimizers.
//
// One evaluation path: each stage is one fused layer, a few blocked
// sweeps via Statevector::apply_qaoa_layer* (see
// quantum/fused_kernels.hpp).  When the diagonal is invariant under the
// global bit flip, d(z) == d(~z) bit for bit (every MaxCut cost; an
// Ising model with fields is not), the state is too, and the layers and
// the <C> read run on the Z2-symmetric half state: 2^(n-1) stored
// amplitudes, bit-identical to the full schedule.  The constructor's
// sweep detects this; no setting chooses it.  The MaxCut cost of an
// unweighted graph has an integral spectrum, so its phase separator
// collapses to a precomputed power table (exp(-i gamma)^C(z)) over the
// lower half; every other diagonal, an integral Ising one included,
// takes the general layer.  The tests check all of them against an
// unfused layer sequence and a gate-by-gate CNOT/RZ/RX ansatz
// simulation (tests/support).
#ifndef QAOAML_CORE_QAOA_OBJECTIVE_HPP
#define QAOAML_CORE_QAOA_OBJECTIVE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/eval_spec.hpp"
#include "graph/graph.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "optim/types.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml::core {

/// A depth-p QAOA instance that maximizes a diagonal cost.
class DiagonalQaoa {
 public:
  /// Requires depth >= 1.
  DiagonalQaoa(ising::DiagonalHamiltonian hamiltonian, int depth);

  int depth() const { return depth_; }
  int num_qubits() const { return hamiltonian_.num_qubits(); }
  std::size_t num_parameters() const;
  const ising::DiagonalHamiltonian& hamiltonian() const { return hamiltonian_; }

  /// The largest cost value (exact, by enumeration): the AR denominator.
  double max_value() const { return max_value_; }

  /// The paper's optimization box for this depth.
  optim::Bounds bounds() const;

  /// True when the layers use the power-table phase separator: a MaxCut
  /// cost whose every cut value is an integer (unweighted graphs).
  bool has_integer_spectrum() const { return !int_diagonal_.empty(); }

  /// True when n >= 2 and d(z) == d(~z) bit for bit for every z, so the
  /// evaluations run on the Z2-symmetric half state.
  bool is_flip_symmetric() const { return symmetric_; }

  /// |psi(gamma, beta)>.
  quantum::Statevector state(std::span<const double> params) const;

  /// |psi(gamma, beta)> written into `workspace`, reusing its
  /// amplitude buffer (no allocation when the dimension matches).  A
  /// symmetric instance builds the half state, then copies its mirror
  /// into the upper half, so the result is always the full state.
  void state_into(quantum::Statevector& workspace,
                  std::span<const double> params) const;

  /// <C> of the prepared state.
  double expectation(std::span<const double> params) const;

  /// <C> evaluated in `workspace` — identical value to expectation(),
  /// without the per-call 2^n allocation.  This is the evaluation hot
  /// path: a symmetric instance reads only the half state, which leaves
  /// the upper half of `workspace` unspecified (state_into fills it).
  double expectation_using(quantum::Statevector& workspace,
                           std::span<const double> params) const;

  /// Finite-shot estimate of <C> (Born-rule sampling): evaluate_using
  /// with a `shots`-shot spec in private workspaces (one 2^n statevector
  /// + one 2^n CDF allocation per call).
  double sampled_expectation(std::span<const double> params, int shots,
                             Rng& rng) const;

  /// <C> under `spec`: expectation_using in exact mode (rng untouched).
  /// Sampled mode prepares |psi> in `workspace`, builds the Born-rule
  /// CDF once in `cdf_workspace` (serial prefix sum), then averages
  /// `spec.shots * spec.averaging` basis-state draws taken sequentially
  /// from `rng` by CDF inversion — O(2^n + shots * n).  The estimate is a
  /// pure function of (params, spec, rng state): bit-identical across
  /// QAOAML_THREADS, shard counts and batch positions.  Validates the
  /// spec (hostile shot counts throw).
  double evaluate_using(quantum::Statevector& workspace,
                        std::vector<double>& cdf_workspace,
                        std::span<const double> params, const EvalSpec& spec,
                        Rng& rng) const;

  /// expectation / max_value (requires max_value > 0).
  double approximation_ratio(std::span<const double> params) const;

  /// Minimization objective -<C> under `spec`; references this
  /// instance, which must outlive it.  One callable may be shared by
  /// concurrent callers: each call borrows a statevector/CDF workspace
  /// from a pool shared by the callable's copies (made on first use, so
  /// warm calls allocate nothing).  Exact and SeedPolicy::kPerCall
  /// values are pure functions of the angles — kPerCall re-seeds the
  /// measurement stream with `stream_seed` every call (common random
  /// numbers).  SeedPolicy::kStream draws from one stream seeded with
  /// `stream_seed` that advances call to call, so its values depend on
  /// call order.
  optim::ObjectiveFn objective(const EvalSpec& spec = EvalSpec::exact(),
                               std::uint64_t stream_seed = 0) const;

 protected:
  /// With `power_table`, a flip-symmetric integral diagonal with
  /// entries in [0, 1e6] takes the power-table phase separator.
  DiagonalQaoa(ising::DiagonalHamiltonian hamiltonian, int depth,
               bool power_table);

 private:
  /// The layers of |psi>: the half state when symmetric_ (the upper half
  /// of `sv` is then stale), else the full state.
  void build_into(quantum::Statevector& sv,
                  std::span<const double> params) const;
  /// d(z) for z < 2^(n-1).
  std::span<const double> half_diagonal() const;

  ising::DiagonalHamiltonian hamiltonian_;
  int depth_;
  double max_value_ = 0.0;
  bool symmetric_ = false;
  // d(z) for z < 2^(n-1) as integers; empty unless the power table is on.
  std::vector<int> int_diagonal_;
  int max_int_value_ = 0;
};

/// The MaxCut-QAOA instance of the paper: the cut-value diagonal of a
/// problem graph.
class MaxCutQaoa : public DiagonalQaoa {
 public:
  /// Requires a graph with >= 1 edge and at most quantum::kMaxQubits
  /// nodes, and depth >= 1; checked before the 2^n cut table is built.
  MaxCutQaoa(graph::Graph g, int depth);

  const graph::Graph& problem_graph() const { return graph_; }

 private:
  graph::Graph graph_;
};

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_QAOA_OBJECTIVE_HPP
