#include "core/two_level_solver.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/angles.hpp"

namespace qaoaml::core {
namespace {

/// Options for a warm-started stage: identical tolerances, but the
/// derivative-free trust region opens at warm_rho_begin instead of the
/// cold-start radius.
optim::Options warm_options(const TwoLevelConfig& config) {
  optim::Options options = config.options;
  options.rho_begin = std::min(options.rho_begin, config.warm_rho_begin);
  return options;
}

/// A warm-started stage under the config's EvalSpec.  Sampled mode
/// draws the stage's measurement-stream seed from `rng`; exact mode
/// leaves `rng` untouched (bit-compat with the pre-EvalSpec flow).
QaoaRun solve_warm_stage(const MaxCutQaoa& instance,
                         const TwoLevelConfig& config,
                         std::span<const double> init, Rng& rng) {
  const std::uint64_t stream_seed = config.eval.sampled() ? rng() : 0;
  return solve_from_seeded(instance, config.optimizer, init, config.eval,
                           stream_seed, warm_options(config));
}

/// Level 1's random inputs: max(1, level1_restarts) depth-1 starts.
RandomStarts draw_level1(const TwoLevelConfig& config, Rng& rng) {
  return RandomStarts(1, std::max(1, config.level1_restarts), config.eval,
                      rng);
}

/// solve_level1 from level-1 inputs drawn beforehand.
QaoaRun solve_level1_from(const graph::Graph& problem,
                          const TwoLevelConfig& config,
                          const RandomStarts& draws) {
  const MaxCutQaoa level1_instance(problem, 1);
  MultistartRuns runs = solve_multistart(level1_instance, config.optimizer,
                                         draws, config.eval, config.options);
  QaoaRun best = std::move(runs.best);
  best.function_calls = runs.total_function_calls;  // all restarts count
  return best;
}

}  // namespace

TwoLevelDraws::TwoLevelDraws(const TwoLevelConfig& config, Rng& rng)
    : level1(draw_level1(config, rng)),
      final_seed(config.eval.sampled() ? rng() : 0) {}

QaoaRun solve_level1(const graph::Graph& problem, const TwoLevelConfig& config,
                     Rng& rng) {
  return solve_level1_from(problem, config, draw_level1(config, rng));
}

AcceleratedRun solve_two_level(const graph::Graph& problem, int target_depth,
                               const ParameterPredictor& predictor,
                               const TwoLevelConfig& config, Rng& rng) {
  return solve_two_level(problem, target_depth, predictor, config,
                         TwoLevelDraws(config, rng));
}

AcceleratedRun solve_two_level(const graph::Graph& problem, int target_depth,
                               const ParameterPredictor& predictor,
                               const TwoLevelConfig& config,
                               const TwoLevelDraws& draws) {
  require(predictor.trained(), "solve_two_level: predictor not trained");
  require(predictor.config().intermediate_depth == 0,
          "solve_two_level: needs a two-level predictor bank");
  require(target_depth >= 2, "solve_two_level: target depth must be >= 2");

  AcceleratedRun out;
  out.level1 = solve_level1_from(problem, config, draws.level1);

  out.predicted_init = predictor.predict(gamma_of(out.level1.params, 1),
                                         beta_of(out.level1.params, 1),
                                         target_depth);

  const MaxCutQaoa target_instance(problem, target_depth);
  out.final = solve_from_seeded(target_instance, config.optimizer,
                                out.predicted_init, config.eval,
                                draws.final_seed, warm_options(config));
  out.total_function_calls =
      out.level1.function_calls + out.final.function_calls;
  return out;
}

AcceleratedRun solve_three_level(const graph::Graph& problem, int target_depth,
                                 const ParameterPredictor& coarse,
                                 const ParameterPredictor& fine,
                                 const TwoLevelConfig& config, Rng& rng) {
  require(coarse.trained() && fine.trained(),
          "solve_three_level: predictors not trained");
  require(coarse.config().intermediate_depth == 0,
          "solve_three_level: coarse bank must be two-level");
  const int pm = fine.config().intermediate_depth;
  require(pm >= 2, "solve_three_level: hierarchical bank needs pm >= 2");
  require(target_depth > pm,
          "solve_three_level: target depth must exceed the intermediate");

  AcceleratedRun out;
  out.level1 = solve_level1(problem, config, rng);
  const double gamma1 = gamma_of(out.level1.params, 1);
  const double beta1 = beta_of(out.level1.params, 1);

  // Level 2: intermediate depth, seeded by the two-level prediction.
  const std::vector<double> pm_init = coarse.predict(gamma1, beta1, pm);
  const MaxCutQaoa pm_instance(problem, pm);
  out.intermediate = solve_warm_stage(pm_instance, config, pm_init, rng);

  // Level 3: target depth, seeded by the hierarchical prediction.
  out.predicted_init = fine.predict_hierarchical(
      gamma1, beta1, out.intermediate.params, target_depth);
  const MaxCutQaoa target_instance(problem, target_depth);
  out.final = solve_warm_stage(target_instance, config, out.predicted_init,
                               rng);

  out.total_function_calls = out.level1.function_calls +
                             out.intermediate.function_calls +
                             out.final.function_calls;
  return out;
}

}  // namespace qaoaml::core
