// EvalSpec API tests: hostile specs fail loudly, sampled evaluation is
// bit-deterministic across thread counts / batch orders / batch-vs-
// sequential paths, the finite-shot estimate converges to the exact
// expectation as shots grow, and the EvalSpec solver overloads keep
// their contracts (exact-mode bit-compatibility, exact re-scoring of
// sampled runs, noisy-option floors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/eval_spec.hpp"
#include "core/qaoa_objective.hpp"
#include "core/parameter_dataset.hpp"
#include "core/parameter_predictor.hpp"
#include "core/qaoa_solver.hpp"
#include "core/two_level_solver.hpp"
#include "graph/generators.hpp"
#include "quantum/statevector.hpp"

using namespace qaoaml;
using core::BatchEvaluator;
using core::BatchJob;
using core::EvalSpec;
using core::MaxCutQaoa;
using core::ObjectiveMode;
using core::SeedPolicy;

namespace {

MaxCutQaoa test_instance(int nodes = 8, int depth = 2,
                         std::uint64_t seed = 3) {
  Rng rng(seed);
  return MaxCutQaoa(graph::random_regular(nodes, 3, rng), depth);
}

TEST(EvalSpec, ValidationRejectsHostileSpecs) {
  EXPECT_NO_THROW(core::validate(EvalSpec::exact()));
  EXPECT_NO_THROW(core::validate(EvalSpec::sampled_with(1, 0)));

  EXPECT_THROW(core::validate(EvalSpec::sampled_with(0, 0)), InvalidArgument);
  EXPECT_THROW(core::validate(EvalSpec::sampled_with(-64, 0)),
               InvalidArgument);
  EXPECT_THROW(core::validate(EvalSpec::sampled_with(128, 0, 0)),
               InvalidArgument);
  EXPECT_THROW(core::validate(EvalSpec::sampled_with(128, 0, -2)),
               InvalidArgument);

  // Exact mode never samples, so its sampling knobs are inert even when
  // they hold garbage (a default-constructed spec must always be safe).
  EvalSpec exact;
  exact.shots = -1;
  EXPECT_NO_THROW(core::validate(exact));
}

TEST(EvalSpec, HostileShotCountsThrowAtEveryEntryPoint) {
  const MaxCutQaoa instance = test_instance();
  const std::vector<double> params(instance.num_parameters(), 0.3);
  Rng rng(1);
  EXPECT_THROW(instance.sampled_expectation(params, 0, rng), InvalidArgument);
  EXPECT_THROW(instance.sampled_expectation(params, -5, rng),
               InvalidArgument);

  quantum::Statevector ws = quantum::Statevector::uniform(8);
  std::vector<double> cdf;
  EXPECT_THROW(
      instance.evaluate_using(ws, cdf, params, EvalSpec::sampled_with(0, 7),
                              rng),
      InvalidArgument);

  BatchEvaluator evaluator(instance);
  EXPECT_THROW(evaluator.evaluate(params, EvalSpec::sampled_with(-1, 7)),
               InvalidArgument);
  std::vector<BatchJob> jobs{{&instance, params, EvalSpec::sampled_with(0, 7)}};
  EXPECT_THROW(BatchEvaluator::evaluations(jobs), InvalidArgument);
}

TEST(EvalSpec, StringRoundTripAndHostileParses) {
  EXPECT_EQ(core::objective_mode_from_string("exact"), ObjectiveMode::kExact);
  EXPECT_EQ(core::objective_mode_from_string("sampled"),
            ObjectiveMode::kSampled);
  EXPECT_THROW(core::objective_mode_from_string("Exact"), InvalidArgument);
  EXPECT_THROW(core::objective_mode_from_string(""), InvalidArgument);

  EXPECT_EQ(core::seed_policy_from_string("stream"), SeedPolicy::kStream);
  EXPECT_EQ(core::seed_policy_from_string("per-call"), SeedPolicy::kPerCall);
  EXPECT_THROW(core::seed_policy_from_string("percall"), InvalidArgument);

  // The config token distinguishes specs (it invalidates shard files);
  // every knob that changes results must show up in it.
  EXPECT_EQ(core::to_string(EvalSpec::exact()), "objective=exact");
  const std::string sampled =
      core::to_string(EvalSpec::sampled_with(256, 7, 2));
  EXPECT_NE(sampled, core::to_string(EvalSpec::sampled_with(512, 7, 2)));
  EXPECT_NE(sampled, core::to_string(EvalSpec::sampled_with(256, 8, 2)));
  EXPECT_NE(sampled, core::to_string(EvalSpec::sampled_with(256, 7, 3)));
  EXPECT_NE(sampled.find("shots=256"), std::string::npos);
}

TEST(EvalSpec, SubstreamSeedsAreDeterministicAndSpread) {
  const EvalSpec spec = EvalSpec::sampled_with(64, 42);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t tag = 0; tag < 64; ++tag) {
    const std::uint64_t s = core::substream_seed(spec, tag);
    EXPECT_EQ(s, core::substream_seed(spec, tag));
    seeds.push_back(s);
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(EvalSpec, NoisyOptionsFloorTolerances) {
  optim::Options tight;
  tight.ftol = 1e-9;
  tight.xtol = 1e-8;
  const optim::Options noisy = core::noisy_options(tight);
  EXPECT_EQ(noisy.ftol, core::kNoisyFtolFloor);
  EXPECT_EQ(noisy.xtol, core::kNoisyXtolFloor);

  // Looser-than-floor tolerances pass through: it is a floor, not a set.
  optim::Options loose;
  loose.ftol = 0.5;
  loose.xtol = 0.5;
  EXPECT_EQ(core::noisy_options(loose).ftol, 0.5);
  EXPECT_EQ(core::noisy_options(loose).xtol, 0.5);

  EXPECT_EQ(core::effective_options(tight, EvalSpec::exact()).ftol, 1e-9);
  EXPECT_EQ(core::effective_options(tight, EvalSpec::sampled_with(64, 0)).ftol,
            core::kNoisyFtolFloor);
}

TEST(EvalSpec, CdfInversionMatchesLinearScanSampling) {
  // The CDF prefix sum is the linear scan's accumulator, so for any
  // uniform u the inverted index must be the first z with cdf[z] >= u —
  // cross-check against an explicit scan on a non-trivial state.
  const MaxCutQaoa instance = test_instance(8, 2, 11);
  Rng rng(5);
  const std::vector<double> params = core::random_angles(2, rng);
  quantum::Statevector ws = quantum::Statevector::uniform(8);
  instance.state_into(ws, params);
  std::vector<double> cdf;
  ws.cumulative_probabilities(cdf);
  ASSERT_EQ(cdf.size(), ws.dimension());

  Rng draws(17);
  for (int s = 0; s < 200; ++s) {
    const double u = draws.uniform();
    const std::uint64_t fast = quantum::Statevector::sample_cdf(cdf, u);
    std::uint64_t slow = cdf.size() - 1;
    for (std::size_t z = 0; z < cdf.size(); ++z) {
      if (cdf[z] >= u) {
        slow = z;
        break;
      }
    }
    EXPECT_EQ(fast, slow);
  }
}

TEST(EvalSpec, SampledEstimateIsSeedDeterministicAcrossThreadCounts) {
  // 14 qubits puts the statevector kernels on their blocked parallel
  // paths; the estimate must still be bitwise thread-count independent.
  const MaxCutQaoa instance = test_instance(14, 2, 21);
  Rng prng(9);
  const std::vector<double> params = core::random_angles(2, prng);

  const auto estimate = [&](int threads) {
    ScopedThreadCount guard(threads);
    Rng rng(1234);
    return instance.sampled_expectation(params, 512, rng);
  };
  const double one = estimate(1);
  const double eight = estimate(8);
  EXPECT_EQ(one, eight);  // bitwise, not approximate

  // Fresh rng state, same seed: the estimate is reproducible; a
  // different seed gives a genuinely different draw.
  Rng again(1234);
  EXPECT_EQ(instance.sampled_expectation(params, 512, again), one);
  Rng other(1235);
  EXPECT_NE(instance.sampled_expectation(params, 512, other), one);
}

TEST(EvalSpec, BatchMatchesSequentialAndFollowsPermutation) {
  const MaxCutQaoa a = test_instance(8, 2, 31);
  const MaxCutQaoa b = test_instance(10, 2, 32);
  Rng prng(2);

  std::vector<BatchJob> jobs;
  for (int i = 0; i < 10; ++i) {
    const MaxCutQaoa& inst = (i % 2 == 0) ? a : b;
    const EvalSpec spec = EvalSpec::sampled_with(
        128, core::substream_seed(EvalSpec::sampled_with(128, 99),
                                  static_cast<std::uint64_t>(i)));
    jobs.push_back({&inst, core::random_angles(2, prng), spec});
  }
  // Every third job stays exact: mixed batches must route per item.
  jobs[3].eval = EvalSpec::exact();
  jobs[6].eval = EvalSpec::exact();

  const std::vector<double> batched = BatchEvaluator::evaluations(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const core::DiagonalQaoa& inst = *jobs[i].instance;
    if (!jobs[i].eval.sampled()) {
      EXPECT_EQ(batched[i], inst.expectation(jobs[i].params));
      continue;
    }
    Rng rng(jobs[i].eval.seed);
    EXPECT_EQ(batched[i],
              inst.sampled_expectation(jobs[i].params, 128, rng));
  }

  // Thread counts cannot change a bit.
  std::vector<double> one, eight;
  {
    ScopedThreadCount guard(1);
    one = BatchEvaluator::evaluations(jobs);
  }
  {
    ScopedThreadCount guard(8);
    eight = BatchEvaluator::evaluations(jobs);
  }
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one, batched);

  // Each job carries its own stream seed, so permuting the batch
  // permutes the results — order can never change a value.
  std::vector<BatchJob> reversed(jobs.rbegin(), jobs.rend());
  const std::vector<double> rev = BatchEvaluator::evaluations(reversed);
  ASSERT_EQ(rev.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(rev[batched.size() - 1 - i], batched[i]);
  }
}

TEST(EvalSpec, SampledEstimateConvergesToExactExpectation) {
  const MaxCutQaoa instance = test_instance(8, 2, 41);
  Rng prng(3);
  const std::vector<double> params = core::random_angles(2, prng);
  const double exact = instance.expectation(params);

  // The per-shot values are cut sizes in [0, max_cut]; with 200k shots
  // the standard error is far below 0.05 — a 0.1 tolerance is many
  // standard deviations, so this cannot flake while still catching any
  // systematic bias in the CDF-inversion sampler.
  Rng rng(77);
  const double est = instance.sampled_expectation(params, 200000, rng);
  EXPECT_NEAR(est, exact, 0.1);

  // Monotone refinement on average: the absolute error at 64 shots over
  // many repeats should exceed the 200k-shot error.
  Rng coarse_rng(78);
  double coarse_abs = 0.0;
  for (int r = 0; r < 20; ++r) {
    coarse_abs +=
        std::abs(instance.sampled_expectation(params, 64, coarse_rng) - exact);
  }
  coarse_abs /= 20.0;
  EXPECT_GT(coarse_abs, std::abs(est - exact));
}

TEST(EvalSpec, AveragingDrawsTheCombinedShotBudget) {
  // averaging=K over one state prep is the mean of all shots*K draws —
  // identical bits to a single (shots*K)-shot estimate from the same
  // stream.
  const MaxCutQaoa instance = test_instance(8, 2, 51);
  Rng prng(4);
  const std::vector<double> params = core::random_angles(2, prng);
  quantum::Statevector ws = quantum::Statevector::uniform(8);
  std::vector<double> cdf;

  Rng rng_avg(7);
  const double averaged = instance.evaluate_using(
      ws, cdf, params, EvalSpec::sampled_with(100, 0, 4), rng_avg);
  Rng rng_flat(7);
  const double flat = instance.evaluate_using(
      ws, cdf, params, EvalSpec::sampled_with(400, 0), rng_flat);
  EXPECT_EQ(averaged, flat);
}

TEST(EvalSpec, ObjectiveSeedPolicies) {
  const MaxCutQaoa instance = test_instance(8, 2, 61);
  Rng prng(5);
  const std::vector<double> params = core::random_angles(2, prng);

  // kPerCall re-seeds every call: a deterministic noisy surrogate.
  EvalSpec per_call = EvalSpec::sampled_with(64, 0);
  per_call.seed_policy = SeedPolicy::kPerCall;
  const optim::ObjectiveFn surrogate = instance.objective(per_call, 123);
  EXPECT_EQ(surrogate(params), surrogate(params));

  // kStream advances: fresh noise call to call.
  const optim::ObjectiveFn noisy =
      instance.objective(EvalSpec::sampled_with(64, 0), 123);
  EXPECT_NE(noisy(params), noisy(params));

  // Exact specs ignore the stream seed.
  const optim::ObjectiveFn exact_fn =
      instance.objective(EvalSpec::exact(), 999);
  EXPECT_EQ(exact_fn(params), -instance.expectation(params));
}

TEST(EvalSpec, ExactSpecOverloadsAreBitCompatible) {
  // The EvalSpec overloads with an exact spec must consume the same rng
  // draws and produce the same bits as the pre-EvalSpec entry points.
  const MaxCutQaoa instance = test_instance(8, 2, 71);

  Rng rng_a(11);
  Rng rng_b(11);
  const core::QaoaRun plain = core::solve_random_init(
      instance, optim::OptimizerKind::kNelderMead, rng_a);
  const core::QaoaRun spec_run = core::solve_random_init(
      instance, optim::OptimizerKind::kNelderMead, rng_b, EvalSpec::exact());
  EXPECT_EQ(plain.expectation, spec_run.expectation);
  EXPECT_EQ(plain.function_calls, spec_run.function_calls);
  EXPECT_EQ(plain.params, spec_run.params);
  EXPECT_EQ(rng_a(), rng_b());  // identical draw counts

  Rng rng_c(12);
  Rng rng_d(12);
  const core::MultistartRuns plain_ms = core::solve_multistart(
      instance, optim::OptimizerKind::kNelderMead, 4, rng_c);
  const core::MultistartRuns spec_ms = core::solve_multistart(
      instance, optim::OptimizerKind::kNelderMead, 4, rng_d,
      EvalSpec::exact());
  EXPECT_EQ(plain_ms.best.expectation, spec_ms.best.expectation);
  EXPECT_EQ(plain_ms.total_function_calls, spec_ms.total_function_calls);
  EXPECT_EQ(rng_c(), rng_d());
}

TEST(EvalSpec, SampledSolveRescoresExactlyAndIsDeterministic) {
  const MaxCutQaoa instance = test_instance(8, 2, 81);
  const EvalSpec spec = EvalSpec::sampled_with(256, 909);
  Rng prng(6);
  const std::vector<double> x0 = core::random_angles(2, prng);

  const core::QaoaRun run = core::solve_from(
      instance, optim::OptimizerKind::kNelderMead, x0, spec);
  // The reported value is the EXACT expectation at the returned angles
  // (the noisy loop found them; the report does not inherit its noise).
  EXPECT_EQ(run.expectation, instance.expectation(run.params));
  EXPECT_EQ(run.approximation_ratio, instance.approximation_ratio(run.params));
  EXPECT_GT(run.function_calls, 0);

  const core::QaoaRun again = core::solve_from(
      instance, optim::OptimizerKind::kNelderMead, x0, spec);
  EXPECT_EQ(run.expectation, again.expectation);
  EXPECT_EQ(run.params, again.params);
  EXPECT_EQ(run.function_calls, again.function_calls);

  // A different measurement seed explores different noise.
  const core::QaoaRun other = core::solve_from(
      instance, optim::OptimizerKind::kNelderMead, x0,
      EvalSpec::sampled_with(256, 910));
  EXPECT_NE(run.params, other.params);
}

TEST(EvalSpec, SampledMultistartDeterministicAcrossThreadsAndVsSequential) {
  const MaxCutQaoa instance = test_instance(8, 2, 91);
  const EvalSpec spec = EvalSpec::sampled_with(128, 0);

  const auto run_batched = [&](int threads) {
    ScopedThreadCount guard(threads);
    Rng rng(33);
    return core::solve_multistart(instance,
                                  optim::OptimizerKind::kNelderMead, 6, rng,
                                  spec);
  };
  const core::MultistartRuns one = run_batched(1);
  const core::MultistartRuns eight = run_batched(8);

  Rng rng_seq(33);
  const core::MultistartRuns seq = core::solve_multistart_sequential(
      instance, optim::OptimizerKind::kNelderMead, 6, rng_seq, spec);

  ASSERT_EQ(one.runs.size(), 6u);
  ASSERT_EQ(eight.runs.size(), 6u);
  ASSERT_EQ(seq.runs.size(), 6u);
  for (std::size_t r = 0; r < one.runs.size(); ++r) {
    EXPECT_EQ(one.runs[r].expectation, eight.runs[r].expectation);
    EXPECT_EQ(one.runs[r].expectation, seq.runs[r].expectation);
    EXPECT_EQ(one.runs[r].params, eight.runs[r].params);
    EXPECT_EQ(one.runs[r].params, seq.runs[r].params);
    EXPECT_EQ(one.runs[r].function_calls, seq.runs[r].function_calls);
  }
  EXPECT_EQ(one.best.expectation, eight.best.expectation);
  EXPECT_EQ(one.total_function_calls, seq.total_function_calls);
}

TEST(EvalSpec, TwoLevelFlowThreadsSampledSpec) {
  // Tiny corpus -> bank -> two-level flow with a sampled spec: the
  // whole accelerated pipeline must stay seed-deterministic across
  // thread counts, and the final stage must be exact-rescored.
  core::DatasetConfig dataset;
  dataset.num_graphs = 6;
  dataset.num_nodes = 6;
  dataset.max_depth = 2;
  dataset.restarts = 2;
  dataset.seed = 13;
  const core::ParameterDataset mini = core::ParameterDataset::generate(dataset);
  core::ParameterPredictor bank;
  std::vector<std::size_t> all(mini.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  bank.train(mini, all);

  Rng graph_rng(3);
  const graph::Graph problem = graph::random_regular(8, 3, graph_rng);
  core::TwoLevelConfig config;
  config.optimizer = optim::OptimizerKind::kNelderMead;
  config.eval = EvalSpec::sampled_with(128, 0);

  const auto run_once = [&](int threads) {
    ScopedThreadCount guard(threads);
    Rng rng(55);
    return core::solve_two_level(problem, 2, bank, config, rng);
  };
  const core::AcceleratedRun one = run_once(1);
  const core::AcceleratedRun eight = run_once(8);
  EXPECT_EQ(one.final.expectation, eight.final.expectation);
  EXPECT_EQ(one.final.params, eight.final.params);
  EXPECT_EQ(one.total_function_calls, eight.total_function_calls);
  // Re-scored exactly, like every sampled solve.
  const MaxCutQaoa target(problem, 2);
  EXPECT_EQ(one.final.expectation, target.expectation(one.final.params));
}

}  // namespace
