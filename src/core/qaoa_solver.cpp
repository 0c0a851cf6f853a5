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
  const RandomStarts draw(instance.depth(), 1, eval, rng);
  return solve_from_seeded(instance, optimizer, draw.starts[0], eval,
                           draw.seeds[0], options);
}

RandomStarts::RandomStarts(int depth, int count, const EvalSpec& eval,
                           Rng& rng) {
  require(count >= 1, "solve_multistart: need at least one restart");
  validate(eval);
  const auto n = static_cast<std::size_t>(count);
  starts.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    starts.push_back(random_angles(depth, rng));
  }
  seeds.assign(n, 0);
  if (eval.sampled()) {
    for (std::uint64_t& seed : seeds) seed = rng();
  }
}

MultistartRuns reduce_multistart(std::vector<QaoaRun> runs) {
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
  return solve_multistart(instance, optimizer,
                          RandomStarts(instance.depth(), restarts, eval, rng),
                          eval, options);
}

MultistartRuns solve_multistart(const DiagonalQaoa& instance,
                                optim::OptimizerKind optimizer,
                                const RandomStarts& draws,
                                const EvalSpec& eval,
                                const optim::Options& options) {
  validate(eval);
  for (const std::vector<double>& start : draws.starts) {
    require(start.size() == instance.num_parameters(),
            "solve_multistart: wrong parameter count");
  }
  // One batch over the pool: contiguous restart chunks (one per worker,
  // BatchEvaluator-style) run concurrently, and every restart within a
  // chunk shares that chunk's workspace — O(threads) 2^n allocations per
  // multistart instead of O(restarts).  Each optimization is a pure
  // function of its (start, stream seed), both fixed up front, and the
  // workspace is fully rewritten per evaluation, so chunk boundaries
  // (i.e. the thread count) cannot change a single bit of any run.
  std::vector<QaoaRun> runs(draws.starts.size());
  parallel_for_chunks(
      runs.size(), static_cast<std::size_t>(default_thread_count()),
      [&](std::size_t begin, std::size_t end) {
        Workspace workspace(instance);
        for (std::size_t r = begin; r < end; ++r) {
          runs[r] = solve_in(workspace, instance, optimizer, draws.starts[r],
                             eval, draws.seeds[r], options);
        }
      });
  return reduce_multistart(std::move(runs));
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
  const RandomStarts draws(instance.depth(), restarts, eval, rng);
  std::vector<QaoaRun> runs(draws.starts.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    runs[r] = solve_from_seeded(instance, optimizer, draws.starts[r], eval,
                                draws.seeds[r], options);
  }
  return reduce_multistart(std::move(runs));
}

}  // namespace qaoaml::core
