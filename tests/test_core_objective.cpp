// Tests for the QAOA ansatz circuit and the cost-expectation objective.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/qaoa_circuit.hpp"
#include "core/qaoa_objective.hpp"
#include "core/qaoa_solver.hpp"
#include "graph/generators.hpp"

namespace qaoaml::core {
namespace {

TEST(Ansatz, GateCountsMatchFormula) {
  Rng rng(1);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const int p = 3;
  const AnsatzCost cost = ansatz_cost(g, p);
  const std::size_t m = g.num_edges();
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  EXPECT_EQ(cost.h_count, n);
  EXPECT_EQ(cost.cnot_count, 2 * m * p);
  EXPECT_EQ(cost.rz_count, m * p);
  EXPECT_EQ(cost.rx_count, n * p);
  EXPECT_GT(cost.depth, p);  // at least one layer per stage
}

TEST(Ansatz, ReferencesTwoParametersPerStage) {
  Rng rng(2);
  const graph::Graph g = graph::erdos_renyi_gnp(6, 0.5, rng);
  for (int p : {1, 2, 4}) {
    const quantum::Circuit c = build_maxcut_ansatz(g, p);
    EXPECT_EQ(c.num_parameters(), 2 * p);
  }
}

TEST(Objective, NumParametersAndBounds) {
  Rng rng(3);
  const MaxCutQaoa instance(graph::cycle_graph(6), 4);
  EXPECT_EQ(instance.num_parameters(), 8u);
  EXPECT_EQ(instance.depth(), 4);
  EXPECT_EQ(instance.num_qubits(), 6);
  EXPECT_EQ(instance.bounds().size(), 8u);
}

TEST(Objective, RejectsDegenerateInstances) {
  EXPECT_THROW(MaxCutQaoa(graph::Graph(3), 1), InvalidArgument);  // no edges
  EXPECT_THROW(MaxCutQaoa(graph::cycle_graph(4), 0), InvalidArgument);
}

TEST(Objective, DetectsIntegerSpectrum) {
  Rng rng(5);
  const graph::Graph unweighted = graph::cycle_graph(5);
  EXPECT_TRUE(MaxCutQaoa(unweighted, 1).has_integer_spectrum());
  const graph::Graph weighted =
      graph::with_random_weights(unweighted, 0.1, 0.9, rng);
  EXPECT_FALSE(MaxCutQaoa(weighted, 1).has_integer_spectrum());
}

/// The headline numerical check: the fused fast path and the explicit
/// gate-level circuit must agree to near machine precision.
struct PathCase {
  int nodes;
  double edge_prob;
  int depth;
  bool weighted;
};

// Without this, GoogleTest prints the raw bytes of a PathCase, padding
// included, into the test names, and those bytes vary from run to run.
void PrintTo(const PathCase& c, std::ostream* os) {
  *os << "nodes=" << c.nodes << " edge_prob=" << c.edge_prob
      << " depth=" << c.depth << " weighted=" << c.weighted;
}

class PathEquivalenceTest : public ::testing::TestWithParam<PathCase> {};

TEST_P(PathEquivalenceTest, FastAndGatePathsAgree) {
  const PathCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.nodes * 131 + c.depth));
  graph::Graph g = graph::erdos_renyi_gnp(c.nodes, c.edge_prob, rng);
  while (g.num_edges() == 0) {
    g = graph::erdos_renyi_gnp(c.nodes, c.edge_prob, rng);
  }
  if (c.weighted) g = graph::with_random_weights(g, 0.2, 2.0, rng);
  const MaxCutQaoa instance(g, c.depth);
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<double> params = random_angles(c.depth, rng);
    EXPECT_NEAR(instance.expectation(params),
                instance.expectation_gate_level(params), 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PathEquivalenceTest,
    ::testing::Values(PathCase{4, 0.8, 1, false}, PathCase{6, 0.5, 2, false},
                      PathCase{8, 0.5, 3, false}, PathCase{8, 0.5, 5, false},
                      PathCase{5, 0.7, 2, true}, PathCase{7, 0.4, 3, true}));

TEST(Objective, ExpectationLiesWithinSpectrum) {
  Rng rng(7);
  const graph::Graph g = graph::erdos_renyi_gnp(8, 0.5, rng);
  const MaxCutQaoa instance(g, 3);
  for (int trial = 0; trial < 20; ++trial) {
    const double e = instance.expectation(random_angles(3, rng));
    EXPECT_GE(e, instance.hamiltonian().min_value() - 1e-9);
    EXPECT_LE(e, instance.max_cut_value() + 1e-9);
  }
}

TEST(Objective, ZeroAnglesGiveUniformStateExpectation) {
  // gamma = beta = 0: the circuit is only the Hadamard layer, so <C> is
  // the average cut over all bitstrings = m / 2 for unit weights.
  Rng rng(9);
  const graph::Graph g = graph::erdos_renyi_gnp(7, 0.6, rng);
  const MaxCutQaoa instance(g, 2);
  const std::vector<double> zeros(4, 0.0);
  EXPECT_NEAR(instance.expectation(zeros),
              static_cast<double>(g.num_edges()) / 2.0, 1e-10);
}

TEST(Objective, ObjectiveIsNegatedExpectation) {
  Rng rng(11);
  const graph::Graph g = graph::cycle_graph(5);
  const MaxCutQaoa instance(g, 2);
  const optim::ObjectiveFn objective = instance.objective();
  const std::vector<double> params = random_angles(2, rng);
  EXPECT_DOUBLE_EQ(objective(params), -instance.expectation(params));
}

TEST(Objective, ApproximationRatioNormalizes) {
  Rng rng(13);
  const graph::Graph g = graph::complete_graph(6);
  const MaxCutQaoa instance(g, 2);
  const std::vector<double> params = random_angles(2, rng);
  EXPECT_NEAR(instance.approximation_ratio(params),
              instance.expectation(params) / instance.max_cut_value(), 1e-12);
}

TEST(Objective, SampledExpectationConvergesToExact) {
  Rng rng(17);
  const graph::Graph g = graph::cycle_graph(6);
  const MaxCutQaoa instance(g, 1);
  const std::vector<double> params = random_angles(1, rng);
  const double exact = instance.expectation(params);
  const double sampled = instance.sampled_expectation(params, 200000, rng);
  EXPECT_NEAR(sampled, exact, 0.03);
}

TEST(Objective, StateIsNormalized) {
  Rng rng(19);
  const graph::Graph g = graph::erdos_renyi_gnp(8, 0.5, rng);
  const MaxCutQaoa instance(g, 4);
  const quantum::Statevector sv = instance.state(random_angles(4, rng));
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

TEST(Solver, SingleEdgeIsSolvedExactlyAtDepthOne) {
  // K2 MaxCut: p = 1 QAOA reaches AR = 1 (a textbook analytic result).
  graph::Graph k2(2);
  k2.add_edge(0, 1);
  const MaxCutQaoa instance(k2, 1);
  Rng rng(21);
  const MultistartRuns runs =
      solve_multistart(instance, optim::OptimizerKind::kLbfgsb, 10, rng);
  EXPECT_NEAR(runs.best.approximation_ratio, 1.0, 1e-4);
}

TEST(Solver, RunReportsConsistentMetrics) {
  Rng rng(23);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const MaxCutQaoa instance(g, 2);
  const QaoaRun run =
      solve_random_init(instance, optim::OptimizerKind::kSlsqp, rng);
  EXPECT_GT(run.function_calls, 0);
  EXPECT_NEAR(run.expectation, instance.expectation(run.params), 1e-9);
  EXPECT_NEAR(run.approximation_ratio,
              run.expectation / instance.max_cut_value(), 1e-12);
  EXPECT_LE(beta_of(run.params, 1), M_PI / 2.0 + 1e-12);  // canonicalized
}

TEST(Solver, WarmStartNearOptimumConvergesFast) {
  Rng rng(29);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const MaxCutQaoa instance(g, 2);
  const MultistartRuns reference =
      solve_multistart(instance, optim::OptimizerKind::kLbfgsb, 8, rng);
  // Restart *from* the optimum: should cost far fewer calls than the
  // average random-init run.
  const QaoaRun warm = solve_from(instance, optim::OptimizerKind::kLbfgsb,
                                  reference.best.params);
  const double mean_cold =
      static_cast<double>(reference.total_function_calls) / 8.0;
  EXPECT_LT(warm.function_calls, mean_cold);
  EXPECT_GE(warm.approximation_ratio,
            reference.best.approximation_ratio - 1e-6);
}

TEST(Solver, DeeperCircuitsReachHigherBestAR) {
  // The paper's Fig. 1(c): AR improves with depth.
  Rng rng(31);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const MaxCutQaoa shallow(g, 1);
  const MaxCutQaoa deep(g, 3);
  Rng rng_a(77);
  Rng rng_b(77);
  const double ar1 =
      solve_multistart(shallow, optim::OptimizerKind::kLbfgsb, 8, rng_a)
          .best.approximation_ratio;
  const double ar3 =
      solve_multistart(deep, optim::OptimizerKind::kLbfgsb, 8, rng_b)
          .best.approximation_ratio;
  EXPECT_GT(ar3, ar1 - 1e-9);
}

TEST(Solver, MultistartBestDominatesRuns) {
  Rng rng(37);
  const graph::Graph g = graph::cycle_graph(7);
  const MaxCutQaoa instance(g, 2);
  const MultistartRuns runs =
      solve_multistart(instance, optim::OptimizerKind::kCobyla, 6, rng);
  for (const QaoaRun& run : runs.runs) {
    EXPECT_LE(run.expectation, runs.best.expectation + 1e-12);
  }
}

}  // namespace
}  // namespace qaoaml::core
