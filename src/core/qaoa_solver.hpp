// The QAOA classical optimization loop (Fig. 1(a) of the paper).
//
// Wraps the optim module around a DiagonalQaoa objective and translates
// results into QAOA vocabulary: expectation, approximation ratio (AR)
// and function-call count (FC, the paper's run-time metric).
#ifndef QAOAML_CORE_QAOA_SOLVER_HPP
#define QAOAML_CORE_QAOA_SOLVER_HPP

#include <vector>

#include "core/qaoa_objective.hpp"
#include "optim/multistart.hpp"
#include "optim/optimizer.hpp"

namespace qaoaml::core {

/// Outcome of one optimization-loop run.
struct QaoaRun {
  std::vector<double> params;       ///< optimized angles (canonicalized
                                    ///  when the spectrum is integral)
  double expectation = 0.0;         ///< <C> at the optimum
  double approximation_ratio = 0.0; ///< expectation / max_value
  int function_calls = 0;           ///< QC calls consumed by this run
  int iterations = 0;
  optim::StopReason stop = optim::StopReason::kConverged;
};

/// Runs the loop from an explicit starting point (warm start).
QaoaRun solve_from(const DiagonalQaoa& instance, optim::OptimizerKind optimizer,
                   std::span<const double> x0,
                   const optim::Options& options = {});

// EvalSpec-aware solving (ROADMAP item 4).  Exact specs reproduce the
// exact overloads bit for bit (same rng draws, same options).  Sampled
// specs optimize the finite-shot estimate under the noisy-objective
// preset (effective_options: ftol/xtol floored), then re-score the
// final angles with the EXACT expectation — expectation /
// approximation_ratio report where the noisy loop actually landed,
// while function_calls still counts the noisy objective calls.

/// solve_from under `eval`.  The measurement stream is seeded with
/// `eval.seed` (no caller Rng at this entry point).
QaoaRun solve_from(const DiagonalQaoa& instance, optim::OptimizerKind optimizer,
                   std::span<const double> x0, const EvalSpec& eval,
                   const optim::Options& options = {});

/// solve_from under `eval` with an explicit measurement-stream seed —
/// for callers that manage substreams themselves (multistart, the
/// two-level flow, pipelines).  Exact mode ignores the seed.
QaoaRun solve_from_seeded(const DiagonalQaoa& instance,
                          optim::OptimizerKind optimizer,
                          std::span<const double> x0, const EvalSpec& eval,
                          std::uint64_t stream_seed,
                          const optim::Options& options = {});

/// Runs the loop from one uniformly random initialization (the paper's
/// QCR flow).
QaoaRun solve_random_init(const DiagonalQaoa& instance,
                          optim::OptimizerKind optimizer, Rng& rng,
                          const optim::Options& options = {});

/// solve_random_init under `eval`.  In sampled mode the measurement
/// stream seed is drawn from `rng` after the starting point, so exact
/// specs consume exactly the draws of the exact overload (pipelines
/// stay bit-compatible) and shard units stay pure functions of their
/// own rng stream.
QaoaRun solve_random_init(const DiagonalQaoa& instance,
                          optim::OptimizerKind optimizer, Rng& rng,
                          const EvalSpec& eval,
                          const optim::Options& options = {});

/// Best-of-k multistart (the paper's data-generation setting: "optimal
/// parameters ... from 20 random initializations").
struct MultistartRuns {
  QaoaRun best;
  std::vector<QaoaRun> runs;
  int total_function_calls = 0;
};

/// The random inputs of `count` random-init runs at `depth`, drawn from
/// `rng` up front: every starting point, then (sampled specs only) every
/// measurement-stream seed.  This is the order solve_multistart consumes
/// them in, and with count = 1 the order of solve_random_init; exact
/// specs draw only the starting points.  Throws unless count >= 1.
struct RandomStarts {
  std::vector<std::vector<double>> starts;
  std::vector<std::uint64_t> seeds;  ///< all 0 under an exact spec

  RandomStarts(int depth, int count, const EvalSpec& eval, Rng& rng);
};

/// Reduces runs given in restart order: best is the first run with the
/// highest expectation, total the sum of their calls.
MultistartRuns reduce_multistart(std::vector<QaoaRun> runs);

/// Runs `restarts` optimizations from random starting points and keeps
/// the best.  The restarts are evaluated as ONE batch over the thread
/// pool, BatchEvaluator-style: contiguous restart chunks are dispatched
/// together and each chunk's runs share a single private statevector
/// workspace, so a batch makes O(threads) 2^n allocations instead of
/// O(restarts) and no objective call takes a lock.  Bit-identical to
/// solve_multistart_sequential for every thread count: starting points
/// are drawn from `rng` up front in restart order, each run depends
/// only on its own start, and the best/total reduction happens in
/// restart order.
MultistartRuns solve_multistart(const DiagonalQaoa& instance,
                                optim::OptimizerKind optimizer, int restarts,
                                Rng& rng, const optim::Options& options = {});

/// solve_multistart under `eval`.  In sampled mode, per-restart
/// measurement-stream seeds are drawn from `rng` up front in restart
/// order (right after the starting points), so chunk boundaries and
/// thread counts cannot change a bit and exact specs leave the rng
/// sequence identical to the exact overload.
MultistartRuns solve_multistart(const DiagonalQaoa& instance,
                                optim::OptimizerKind optimizer, int restarts,
                                Rng& rng, const EvalSpec& eval,
                                const optim::Options& options = {});

/// solve_multistart from inputs drawn beforehand (RandomStarts at
/// instance.depth() under the same `eval`): the Rng& overloads draw,
/// then call this.
MultistartRuns solve_multistart(const DiagonalQaoa& instance,
                                optim::OptimizerKind optimizer,
                                const RandomStarts& draws,
                                const EvalSpec& eval,
                                const optim::Options& options = {});

/// The plain one-restart-after-another reference path (one solve_from
/// with a fresh workspace per restart, no batching).  Kept as the
/// differential-testing oracle for the batched path — same restarts,
/// same winner, bit-identical objectives — and as the honest baseline
/// for bench_multistart.
MultistartRuns solve_multistart_sequential(
    const DiagonalQaoa& instance, optim::OptimizerKind optimizer, int restarts,
    Rng& rng, const optim::Options& options = {});

/// The sequential oracle under `eval` — same seed derivation as the
/// batched EvalSpec overload, bit-identical results.
MultistartRuns solve_multistart_sequential(
    const DiagonalQaoa& instance, optim::OptimizerKind optimizer, int restarts,
    Rng& rng, const EvalSpec& eval, const optim::Options& options = {});

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_QAOA_SOLVER_HPP
