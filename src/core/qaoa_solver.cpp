#include "core/qaoa_solver.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/angles.hpp"

namespace qaoaml::core {
namespace {

QaoaRun to_run(const DiagonalQaoa& instance, optim::OptimResult result) {
  QaoaRun run;
  run.params = instance.has_integer_spectrum()
                   ? canonicalize_angles(result.x)
                   : std::move(result.x);
  run.expectation = -result.fun;
  run.approximation_ratio = run.expectation / instance.max_value();
  run.function_calls = result.nfev;
  run.iterations = result.nit;
  run.stop = result.reason;
  return run;
}

/// One worker's evaluation state, reused by every optimizer call of
/// every run the worker makes: private, so no call takes a lock.
struct Workspace {
  quantum::Statevector state;
  std::vector<double> cdf;

  explicit Workspace(const DiagonalQaoa& instance)
      : state(instance.num_qubits()) {}
};

/// One optimization from `x0` under `eval` (pre-validated) in the
/// worker's workspace.  Sampled specs optimize the finite-shot estimate
/// drawn from a stream seeded with `stream_seed` (re-seeded every call
/// under SeedPolicy::kPerCall) with the noisy-objective preset; the
/// optimizer's best `fun` is then a noisy estimate, so the final angles
/// are re-scored with the exact expectation.  Canonicalization is an
/// exact symmetry of <C>, so scoring the canonicalized params is scoring
/// the optimizer's point.
QaoaRun solve_in(Workspace& workspace, const DiagonalQaoa& instance,
                 optim::OptimizerKind optimizer, std::span<const double> x0,
                 const EvalSpec& eval, std::uint64_t stream_seed,
                 const optim::Options& options) {
  Rng stream(stream_seed);
  const optim::ObjectiveFn objective = [&](std::span<const double> params) {
    if (!eval.sampled()) {
      return -instance.expectation_using(workspace.state, params);
    }
    if (eval.seed_policy == SeedPolicy::kPerCall) stream = Rng(stream_seed);
    return -instance.evaluate_using(workspace.state, workspace.cdf, params,
                                    eval, stream);
  };
  QaoaRun run = to_run(
      instance, optim::minimize(optimizer, objective, x0, instance.bounds(),
                                effective_options(options, eval)));
  if (eval.sampled()) {
    run.expectation = instance.expectation_using(workspace.state, run.params);
    run.approximation_ratio = run.expectation / instance.max_value();
  }
  return run;
}

}  // namespace

QaoaRun solve_from(const DiagonalQaoa& instance,
                   optim::OptimizerKind optimizer, std::span<const double> x0,
                   const optim::Options& options) {
  return solve_from_seeded(instance, optimizer, x0, EvalSpec::exact(), 0,
                           options);
}

QaoaRun solve_from(const DiagonalQaoa& instance,
                   optim::OptimizerKind optimizer, std::span<const double> x0,
                   const EvalSpec& eval, const optim::Options& options) {
  return solve_from_seeded(instance, optimizer, x0, eval, eval.seed, options);
}

QaoaRun solve_from_seeded(const DiagonalQaoa& instance,
                          optim::OptimizerKind optimizer,
                          std::span<const double> x0, const EvalSpec& eval,
                          std::uint64_t stream_seed,
                          const optim::Options& options) {
  require(x0.size() == instance.num_parameters(),
          "solve_from: wrong parameter count");
  validate(eval);
  Workspace workspace(instance);
  return solve_in(workspace, instance, optimizer, x0, eval, stream_seed,
                  options);
}

QaoaRun solve_random_init(const DiagonalQaoa& instance,
                          optim::OptimizerKind optimizer, Rng& rng,
                          const optim::Options& options) {
  return solve_random_init(instance, optimizer, rng, EvalSpec::exact(),
                           options);
}

QaoaRun solve_random_init(const DiagonalQaoa& instance,
                          optim::OptimizerKind optimizer, Rng& rng,
                          const EvalSpec& eval,
                          const optim::Options& options) {
  const std::vector<double> x0 = random_angles(instance.depth(), rng);
  // Drawn after the starting point, and only when sampling: exact specs
  // consume exactly the draws of the exact overload above.
  const std::uint64_t stream_seed = eval.sampled() ? rng() : 0;
  return solve_from_seeded(instance, optimizer, x0, eval, stream_seed,
                           options);
}

namespace {

/// A multistart's starting points and measurement-stream seeds, drawn
/// from `rng` up front in restart order: every start, then (sampled
/// specs only) every seed.  Both multistart paths consume this one
/// sequence, and exact specs leave it identical to the exact overloads.
struct Restarts {
  std::vector<std::vector<double>> starts;
  std::vector<std::uint64_t> seeds;

  Restarts(const DiagonalQaoa& instance, int restarts, const EvalSpec& eval,
           Rng& rng) {
    require(restarts >= 1, "solve_multistart: need at least one restart");
    validate(eval);
    const auto count = static_cast<std::size_t>(restarts);
    starts.reserve(count);
    for (std::size_t r = 0; r < count; ++r) {
      starts.push_back(random_angles(instance.depth(), rng));
    }
    seeds.assign(count, 0);
    if (eval.sampled()) {
      for (std::uint64_t& seed : seeds) seed = rng();
    }
  }
};

/// Reduces per-restart runs in restart order, so best/total are
/// identical for every thread count (ties keep the earliest restart).
MultistartRuns reduce_runs(std::vector<QaoaRun> runs) {
  MultistartRuns out;
  for (QaoaRun& run : runs) {
    out.total_function_calls += run.function_calls;
    if (out.runs.empty() || run.expectation > out.best.expectation) {
      out.best = run;
    }
    out.runs.push_back(std::move(run));
  }
  return out;
}

}  // namespace

MultistartRuns solve_multistart(const DiagonalQaoa& instance,
                                optim::OptimizerKind optimizer, int restarts,
                                Rng& rng, const optim::Options& options) {
  return solve_multistart(instance, optimizer, restarts, rng,
                          EvalSpec::exact(), options);
}

MultistartRuns solve_multistart(const DiagonalQaoa& instance,
                                optim::OptimizerKind optimizer, int restarts,
                                Rng& rng, const EvalSpec& eval,
                                const optim::Options& options) {
  const Restarts plan(instance, restarts, eval, rng);

  // One batch over the pool: contiguous restart chunks (one per worker,
  // BatchEvaluator-style) run concurrently, and every restart within a
  // chunk shares that chunk's workspace — O(threads) 2^n allocations per
  // multistart instead of O(restarts).  Each optimization is a pure
  // function of its (start, stream seed), both fixed up front, and the
  // workspace is fully rewritten per evaluation, so chunk boundaries
  // (i.e. the thread count) cannot change a single bit of any run.
  std::vector<QaoaRun> runs(plan.starts.size());
  parallel_for_chunks(
      runs.size(), static_cast<std::size_t>(default_thread_count()),
      [&](std::size_t begin, std::size_t end) {
        Workspace workspace(instance);
        for (std::size_t r = begin; r < end; ++r) {
          runs[r] = solve_in(workspace, instance, optimizer, plan.starts[r],
                             eval, plan.seeds[r], options);
        }
      });
  return reduce_runs(std::move(runs));
}

MultistartRuns solve_multistart_sequential(const DiagonalQaoa& instance,
                                           optim::OptimizerKind optimizer,
                                           int restarts, Rng& rng,
                                           const optim::Options& options) {
  return solve_multistart_sequential(instance, optimizer, restarts, rng,
                                     EvalSpec::exact(), options);
}

MultistartRuns solve_multistart_sequential(const DiagonalQaoa& instance,
                                           optim::OptimizerKind optimizer,
                                           int restarts, Rng& rng,
                                           const EvalSpec& eval,
                                           const optim::Options& options) {
  const Restarts plan(instance, restarts, eval, rng);
  std::vector<QaoaRun> runs(plan.starts.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    runs[r] = solve_from_seeded(instance, optimizer, plan.starts[r], eval,
                                plan.seeds[r], options);
  }
  return reduce_runs(std::move(runs));
}

}  // namespace qaoaml::core
