// The paper's proposed flow (Fig. 4): two-level ML-accelerated QAOA.
//
// Level 1: optimize the depth-1 instance from a random initialization
// (cheap: 2 parameters).  Level 2: feed (gamma_1OPT, beta_1OPT, pt) to
// the trained predictor, seed the depth-pt loop with the predicted
// angles, and optimize locally.  The run-time metric is the *sum* of
// level-1 and level-2 function calls, exactly as Section IV accounts it.
//
// The three-level (hierarchical) extension inserts an intermediate
// depth pm: level 1 as above, level 2 optimizes depth pm seeded by a
// two-level prediction, level 3 optimizes depth pt seeded by the
// hierarchical predictor that sees both the depth-1 and depth-pm optima.
#ifndef QAOAML_CORE_TWO_LEVEL_SOLVER_HPP
#define QAOAML_CORE_TWO_LEVEL_SOLVER_HPP

#include "core/parameter_predictor.hpp"
#include "core/qaoa_solver.hpp"

namespace qaoaml::core {

/// Settings for the accelerated flows.
struct TwoLevelConfig {
  optim::OptimizerKind optimizer = optim::OptimizerKind::kLbfgsb;
  optim::Options options{};   ///< ftol defaults to 1e-6
  int level1_restarts = 1;    ///< random inits for the depth-1 stage

  /// How every stage's objective is evaluated (core/eval_spec.hpp).
  /// Sampled mode: each stage draws its measurement-stream seed from
  /// the caller's Rng (after the pre-existing draws, so exact configs
  /// consume the identical rng sequence as before), optimizes the
  /// finite-shot estimate under the noisy preset, and reports
  /// exact-rescored expectations.
  EvalSpec eval{};

  /// Trust-region radius for *warm-started* stages of derivative-free
  /// methods (COBYLA).  A cold start explores with options.rho_begin;
  /// exploring that coarsely from an ML-predicted point (which sits
  /// within ~0.05 rad of the optimum) would first walk away from it.
  double warm_rho_begin = 0.1;
};

/// Outcome of an accelerated run.
struct AcceleratedRun {
  QaoaRun level1;                      ///< depth-1 stage
  QaoaRun intermediate;                ///< depth-pm stage (three-level only)
  QaoaRun final;                       ///< target-depth stage
  std::vector<double> predicted_init;  ///< angles fed to the final stage
  int total_function_calls = 0;        ///< summed across all stages
};

/// The random inputs of one two-level run, drawn from `rng` in the
/// order solve_two_level(..., Rng&) consumes them: the level-1
/// RandomStarts (max(1, config.level1_restarts) depth-1 starts, then
/// their stream seeds when sampling), then the target stage's stream
/// seed (sampled specs only).  Every draw is independent of the
/// solves, so a run can be planned before it is scheduled.
struct TwoLevelDraws {
  RandomStarts level1;
  std::uint64_t final_seed = 0;

  TwoLevelDraws(const TwoLevelConfig& config, Rng& rng);
};

/// Level 1 of every flow: optimizes the depth-1 instance of `problem`
/// from config.level1_restarts random inits (a solve_multistart whose
/// best run reports the calls of all restarts; one restart is exactly
/// solve_random_init), under config.eval and config.options.
QaoaRun solve_level1(const graph::Graph& problem, const TwoLevelConfig& config,
                     Rng& rng);

/// Runs the two-level flow on `problem` for `target_depth`.
/// `predictor` must be a trained two-level bank.  Draws a TwoLevelDraws
/// from `rng`, then solves from it.
AcceleratedRun solve_two_level(const graph::Graph& problem, int target_depth,
                               const ParameterPredictor& predictor,
                               const TwoLevelConfig& config, Rng& rng);

/// The two-level flow from inputs drawn beforehand: bit-identical to the
/// Rng& overload on the rng the draws came from.
AcceleratedRun solve_two_level(const graph::Graph& problem, int target_depth,
                               const ParameterPredictor& predictor,
                               const TwoLevelConfig& config,
                               const TwoLevelDraws& draws);

/// Runs the three-level flow.  `coarse` seeds the intermediate depth
/// (two-level bank), `fine` is a hierarchical bank whose
/// intermediate_depth defines pm.
AcceleratedRun solve_three_level(const graph::Graph& problem, int target_depth,
                                 const ParameterPredictor& coarse,
                                 const ParameterPredictor& fine,
                                 const TwoLevelConfig& config, Rng& rng);

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_TWO_LEVEL_SOLVER_HPP
