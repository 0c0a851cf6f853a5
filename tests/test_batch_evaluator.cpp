// Batched simulation engine tests: gate-path vs fused-path vs
// batched-path parity, buffer-reuse correctness, and thread-count
// determinism of BatchEvaluator results.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/qaoa_objective.hpp"
#include "core/qaoa_solver.hpp"
#include "graph/generators.hpp"
#include "support/qaoa_reference.hpp"

using namespace qaoaml;
using core::BatchEvaluator;
using core::BatchJob;
using core::MaxCutQaoa;

namespace {

std::vector<std::vector<double>> random_batch(int depth, int size, Rng& rng) {
  std::vector<std::vector<double>> batch;
  batch.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) batch.push_back(core::random_angles(depth, rng));
  return batch;
}

graph::Graph random_weighted_graph(int nodes, Rng& rng) {
  graph::Graph g = graph::erdos_renyi_gnp(nodes, 0.5, rng);
  while (g.num_edges() < 1) g = graph::erdos_renyi_gnp(nodes, 0.5, rng);
  graph::Graph weighted(g.num_nodes());
  for (const auto& e : g.edges()) {
    weighted.add_edge(e.u, e.v, rng.uniform(0.1, 2.5));
  }
  return weighted;
}

TEST(BatchEvaluator, MatchesGateAndFusedPathsUnweighted) {
  Rng rng(2024);
  for (int trial = 0; trial < 3; ++trial) {
    graph::Graph g = graph::random_regular(8, 3, rng);
    const int depth = 1 + trial;
    const MaxCutQaoa instance(g, depth);
    ASSERT_TRUE(instance.has_integer_spectrum());

    const auto batch = random_batch(depth, 12, rng);
    const BatchEvaluator evaluator(instance);
    const std::vector<double> batched = evaluator.expectations(batch);
    ASSERT_EQ(batched.size(), batch.size());

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double fused = instance.expectation(batch[i]);
      const double gate = oracle::gate_level_expectation(instance, batch[i]);
      EXPECT_NEAR(batched[i], fused, 1e-12);
      EXPECT_NEAR(batched[i], gate, 1e-12);
    }
  }
}

TEST(BatchEvaluator, MatchesGateAndFusedPathsWeighted) {
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    const graph::Graph g = random_weighted_graph(7, rng);
    const int depth = 2;
    const MaxCutQaoa instance(g, depth);
    ASSERT_FALSE(instance.has_integer_spectrum());

    const auto batch = random_batch(depth, 10, rng);
    const BatchEvaluator evaluator(instance);
    const std::vector<double> batched = evaluator.expectations(batch);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_NEAR(batched[i], instance.expectation(batch[i]), 1e-12);
      EXPECT_NEAR(batched[i],
                  oracle::gate_level_expectation(instance, batch[i]), 1e-12);
    }
  }
}

TEST(BatchEvaluator, SingleCallReusesWorkspaceAndMatches) {
  Rng rng(5);
  const graph::Graph g = graph::random_regular(10, 3, rng);
  const MaxCutQaoa instance(g, 3);
  BatchEvaluator evaluator(instance);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> params = core::random_angles(3, rng);
    EXPECT_NEAR(evaluator.expectation(params), instance.expectation(params),
                1e-12);
  }
}

TEST(BatchEvaluator, ObjectiveMatchesEvaluatorExpectation) {
  // The pooled objective() and the evaluator's private workspace run the
  // same state build: bit-identical values on both phase paths.
  Rng rng(9);
  const graph::Graph unweighted = graph::random_regular(8, 3, rng);
  const graph::Graph weighted = random_weighted_graph(8, rng);
  for (const graph::Graph* g : {&unweighted, &weighted}) {
    const MaxCutQaoa instance(*g, 2);
    const optim::ObjectiveFn objective = instance.objective();
    BatchEvaluator evaluator(instance);
    for (int i = 0; i < 25; ++i) {
      const std::vector<double> params = core::random_angles(2, rng);
      EXPECT_EQ(objective(params), -evaluator.expectation(params));
    }
  }
}

TEST(BatchEvaluator, HeterogeneousInstanceBatch) {
  Rng rng(31);
  const graph::Graph g1 = graph::random_regular(6, 3, rng);
  const graph::Graph g2 = random_weighted_graph(8, rng);
  const MaxCutQaoa small(g1, 1);
  const MaxCutQaoa large(g2, 3);

  std::vector<BatchJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({&small, core::random_angles(1, rng)});
    jobs.push_back({&large, core::random_angles(3, rng)});
  }
  const std::vector<double> values = BatchEvaluator::evaluations(jobs);
  ASSERT_EQ(values.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NEAR(values[i], jobs[i].instance->expectation(jobs[i].params),
                1e-12);
  }
}

TEST(BatchEvaluator, DeterministicAcrossThreadCounts) {
  Rng rng(404);
  // 16 qubits: large enough that the amplitude kernels take their
  // blocked parallel paths, so this exercises real scheduling variance.
  const graph::Graph g = graph::random_regular(16, 3, rng);
  const MaxCutQaoa instance(g, 3);
  const auto batch = random_batch(3, 8, rng);
  const BatchEvaluator evaluator(instance);

  std::vector<double> one;
  std::vector<double> eight;
  {
    ScopedThreadCount guard(1);
    one = evaluator.expectations(batch);
  }
  {
    ScopedThreadCount guard(8);
    eight = evaluator.expectations(batch);
  }
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], eight[i]);  // bitwise, not approximate
  }
}

TEST(BatchEvaluator, MultistartDeterministicAcrossThreadCounts) {
  Rng rng_a(55);
  Rng rng_b(55);
  Rng graph_rng(1);
  const graph::Graph g = graph::random_regular(8, 3, graph_rng);
  const MaxCutQaoa instance(g, 2);

  core::MultistartRuns one;
  core::MultistartRuns four;
  {
    ScopedThreadCount guard(1);
    one = core::solve_multistart(instance, optim::OptimizerKind::kNelderMead,
                                 6, rng_a);
  }
  {
    ScopedThreadCount guard(4);
    four = core::solve_multistart(instance, optim::OptimizerKind::kNelderMead,
                                  6, rng_b);
  }
  EXPECT_EQ(one.best.expectation, four.best.expectation);
  EXPECT_EQ(one.total_function_calls, four.total_function_calls);
  ASSERT_EQ(one.runs.size(), four.runs.size());
  for (std::size_t r = 0; r < one.runs.size(); ++r) {
    EXPECT_EQ(one.runs[r].expectation, four.runs[r].expectation);
    EXPECT_EQ(one.runs[r].function_calls, four.runs[r].function_calls);
  }
}

}  // namespace
