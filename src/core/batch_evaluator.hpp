// Batch-oriented QAOA objective evaluation.
//
// The simulator is the cost center of every experiment: each objective
// value costs O(p * 2^n) amplitude sweeps, and the sweeps, benches and
// data-generation runs evaluate thousands of (instance, angles) pairs.
// BatchEvaluator amortizes that work:
//  - the diagonal cost (and, for MaxCut, its power table) is
//    precomputed once per DiagonalQaoa instance and shared by every
//    evaluation;
//  - statevector workspaces are reused across evaluations (one per
//    worker chunk), so a batch makes O(threads) 2^n allocations instead
//    of O(batch);
//  - batch entries are scheduled instance-level with parallel_for while
//    the per-entry amplitude kernels run serially inside the workers
//    (nested parallel_* calls collapse to inline execution), which is
//    the right grain for many small-to-medium states.  When the batch
//    is smaller than the pool AND the states are large enough for
//    amplitude-range sharding (see shards_amplitudes), the grain flips:
//    entries run sequentially on the calling thread and each
//    evaluation's amplitude kernels fan out over the whole pool, so ONE
//    large-n objective evaluation saturates the machine;
//  - every evaluation runs through DiagonalQaoa::state_into, the fused
//    layer path: each QAOA layer is one or two blocked passes over the
//    state instead of n + 1 gate passes (quantum/fused_kernels.hpp).
//
// Contracts:
//  - **Determinism.**  Entry i of the output depends only on entry i of
//    the batch, and the underlying reductions are thread-count
//    independent, so QAOAML_THREADS=1 and =8 produce identical bits.
//  - **Thread-safety.**  The batch entry points (expectations /
//    evaluations) parallelize internally and may be called from one
//    thread at a time; the single-shot expectation()/evaluate() reuse
//    the member workspaces and are NOT thread-safe — use one
//    BatchEvaluator per thread.  The referenced instances are only
//    read.
//  - **Angle units.**  `params` follows core/angles.hpp: 2p radians
//    packed as [gamma_1..gamma_p, beta_1..beta_p].
#ifndef QAOAML_CORE_BATCH_EVALUATOR_HPP
#define QAOAML_CORE_BATCH_EVALUATOR_HPP

#include <span>
#include <vector>

#include "core/qaoa_objective.hpp"
#include "quantum/statevector.hpp"

namespace qaoaml::core {

/// One (instance, angles) evaluation request of a heterogeneous batch.
/// `eval` defaults to exact; a sampled spec carries its own shot budget
/// and measurement-stream seed (`eval.seed`), so the job's value is a
/// pure function of the job — batch order, chunking and thread count
/// can never change a bit.
struct BatchJob {
  const DiagonalQaoa* instance = nullptr;
  std::vector<double> params;
  EvalSpec eval{};
};

/// Evaluates the QAOA cost expectation for batches of angle vectors on
/// one problem instance (or heterogeneous instance batches via the
/// static evaluations()).  The referenced instance must outlive this.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const DiagonalQaoa& instance);

  const DiagonalQaoa& instance() const { return *instance_; }

  /// <C> for one angle vector, reusing the internal workspace (no
  /// allocation).  Not thread-safe: one BatchEvaluator per thread.
  double expectation(std::span<const double> params);

  /// <C> under `spec`, reusing the internal statevector and CDF
  /// workspaces (no allocation after the first sampled call).  Sampled
  /// mode draws from a fresh Rng(spec.seed) every call, so the value is
  /// a pure function of (instance, params, spec).  Not thread-safe.
  double evaluate(std::span<const double> params, const EvalSpec& spec);

  /// <C> for every angle vector in the batch, parallel across entries.
  std::vector<double> expectations(
      std::span<const std::vector<double>> batch) const;

  /// <C> for every (instance, angles) job *under its own EvalSpec*;
  /// instances may differ in size and depth.  Exact jobs evaluate like
  /// expectation(); sampled jobs draw from a private Rng(job.eval.seed)
  /// with the job's own shot budget.  Each worker chunk reuses one
  /// workspace, growing it only when the qubit count changes.  Per-item
  /// determinism: entry i is a pure function of job i, verified
  /// bit-identical across thread counts and against the sequential
  /// evaluate() path.
  static std::vector<double> evaluations(std::span<const BatchJob> jobs);

  /// Scheduling policy of the batch entry points: true when a batch of
  /// `batch_size` evaluations on up-to-`num_qubits`-qubit states should
  /// run sequentially with amplitude-range sharding INSIDE each
  /// evaluation (batch smaller than the pool, states at or above the
  /// kernels' parallel threshold), false for the classic
  /// one-entry-per-worker fan-out.  Pure function of its arguments —
  /// exposed so tests can pin the crossover; either branch produces
  /// bit-identical values.
  static bool shards_amplitudes(std::size_t batch_size, int num_qubits,
                                int threads);

 private:
  const DiagonalQaoa* instance_;
  quantum::Statevector workspace_;
  std::vector<double> cdf_workspace_;
};

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_BATCH_EVALUATOR_HPP
