// Tests for the graph substrate: structure, generators, MaxCut.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/maxcut.hpp"
#include "support/diagonal_reference.hpp"

namespace qaoaml::graph {
namespace {

TEST(Graph, StartsEmpty) {
  const Graph g(4);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, AddEdgeNormalizesOrder) {
  Graph g(3);
  g.add_edge(2, 0, 1.5);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.edges()[0].u, 0);
  EXPECT_EQ(g.edges()[0].v, 2);
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 1.5);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 1), InvalidArgument);
  EXPECT_THROW(g.add_edge(1, 0), InvalidArgument);
  EXPECT_THROW(g.add_edge(0, 3), InvalidArgument);
}

TEST(Graph, DegreeAndNeighbors) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(3), 0);
  const std::vector<int> n0 = g.neighbors(0);
  EXPECT_EQ(n0.size(), 2u);
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
}

TEST(Graph, TotalWeightSums) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 5.0);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(1);
  const Graph empty = erdos_renyi_gnp(6, 0.0, rng);
  EXPECT_EQ(empty.num_edges(), 0u);
  const Graph full = erdos_renyi_gnp(6, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 15u);
}

TEST(Generators, ErdosRenyiDensityMatchesProbability) {
  Rng rng(2);
  std::size_t total = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    total += erdos_renyi_gnp(8, 0.5, rng).num_edges();
  }
  const double mean_edges = static_cast<double>(total) / trials;
  EXPECT_NEAR(mean_edges, 14.0, 1.0);  // 28 possible edges * 0.5
}

TEST(Generators, GnmProducesExactEdgeCount) {
  Rng rng(3);
  const Graph g = gnm_random(8, 12, rng);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_THROW(gnm_random(4, 7, rng), InvalidArgument);
}

TEST(Generators, RandomRegularHasUniformDegree) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_regular(8, 3, rng);
    EXPECT_TRUE(g.is_regular(3));
    EXPECT_EQ(g.num_edges(), 12u);
  }
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  Rng rng(5);
  EXPECT_THROW(random_regular(7, 3, rng), InvalidArgument);
  EXPECT_THROW(random_regular(4, 4, rng), InvalidArgument);
}

TEST(Generators, DeterministicFamilies) {
  EXPECT_EQ(cycle_graph(5).num_edges(), 5u);
  EXPECT_TRUE(cycle_graph(5).is_regular(2));
  EXPECT_EQ(complete_graph(5).num_edges(), 10u);
  EXPECT_TRUE(complete_graph(5).is_regular(4));
  EXPECT_EQ(star_graph(5).num_edges(), 4u);
  EXPECT_EQ(star_graph(5).degree(0), 4);
  EXPECT_EQ(path_graph(5).num_edges(), 4u);
  EXPECT_FALSE(path_graph(5).is_regular(1));
}

TEST(Generators, RandomWeightsPreserveTopology) {
  Rng rng(6);
  const Graph g = cycle_graph(6);
  const Graph w = with_random_weights(g, 0.5, 2.0, rng);
  EXPECT_EQ(w.num_edges(), g.num_edges());
  for (const Edge& e : w.edges()) {
    EXPECT_GE(e.weight, 0.5);
    EXPECT_LT(e.weight, 2.0);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(MaxCut, CutValueCountsCrossingEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  // Assignment 0b0101: nodes 0 and 2 on side 1.
  EXPECT_DOUBLE_EQ(cut_value(g, 0b0101), 3.0);
  EXPECT_DOUBLE_EQ(cut_value(g, 0b0000), 0.0);
}

TEST(MaxCut, GlobalFlipInvariance) {
  Rng rng(7);
  const Graph g = erdos_renyi_gnp(8, 0.5, rng);
  const std::uint64_t mask = (1u << 8) - 1;
  for (std::uint64_t z = 0; z < 256; z += 13) {
    EXPECT_DOUBLE_EQ(cut_value(g, z), cut_value(g, z ^ mask));
  }
}

TEST(MaxCut, BipartiteGraphsAreFullyCuttable) {
  // Even cycles and stars are bipartite: max cut = all edges.
  EXPECT_DOUBLE_EQ(max_cut_brute_force(cycle_graph(6)).value, 6.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(star_graph(7)).value, 6.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(path_graph(5)).value, 4.0);
}

TEST(MaxCut, OddCycleLosesOneEdge) {
  EXPECT_DOUBLE_EQ(max_cut_brute_force(cycle_graph(5)).value, 4.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(cycle_graph(7)).value, 6.0);
}

TEST(MaxCut, CompleteGraphFormula) {
  // K_n max cut = floor(n/2) * ceil(n/2).
  EXPECT_DOUBLE_EQ(max_cut_brute_force(complete_graph(4)).value, 4.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(complete_graph(5)).value, 6.0);
  EXPECT_DOUBLE_EQ(max_cut_brute_force(complete_graph(6)).value, 9.0);
}

TEST(MaxCut, AssignmentAchievesReportedValue) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = erdos_renyi_gnp(7, 0.5, rng);
    const MaxCutResult result = max_cut_brute_force(g);
    EXPECT_DOUBLE_EQ(cut_value(g, result.assignment), result.value);
  }
}

TEST(MaxCut, RespectsWeights) {
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  // Best: separate node 1 from {0, 2} -> 11.
  EXPECT_DOUBLE_EQ(max_cut_brute_force(g).value, 11.0);
}

TEST(MaxCut, TableMatchesPointQueries) {
  Rng rng(9);
  const Graph g = erdos_renyi_gnp(6, 0.6, rng);
  const std::vector<double> table = cut_value_table(g);
  ASSERT_EQ(table.size(), 64u);
  for (std::uint64_t z = 0; z < 64; ++z) {
    EXPECT_DOUBLE_EQ(table[z], cut_value(g, z));
  }
}

TEST(MaxCut, TableMaxEqualsBruteForce) {
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = erdos_renyi_gnp(8, 0.5, rng);
    const std::vector<double> table = cut_value_table(g);
    const double table_max = *std::max_element(table.begin(), table.end());
    EXPECT_DOUBLE_EQ(table_max, max_cut_brute_force(g).value);
  }
}

TEST(MaxCut, TableBitIdenticalToEdgeByEdgeOracle) {
  // Fractional and negative weights, sizes from one chunk to many
  // parallel blocks, and thread counts that do not divide the blocks.
  Rng rng(11);
  for (const int n : {1, 2, 5, 12, 13, 16}) {
    Graph g = erdos_renyi_gnp(n, 0.5, rng);
    if (n >= 2) g = with_random_weights(g, -1.75, 2.5, rng);
    if (n >= 5 && !g.has_edge(0, 4)) g.add_edge(0, 4, -0.0);
    const std::vector<double> expected = oracle::cut_value_table_edge_by_edge(g);
    for (const int threads : {1, 3, 8}) {
      const ScopedThreadCount scoped(threads);
      const std::vector<double> table = cut_value_table(g);
      ASSERT_EQ(table.size(), expected.size());
      std::size_t mismatches = 0;
      for (std::size_t z = 0; z < table.size(); ++z) {
        if (std::bit_cast<std::uint64_t>(table[z]) !=
            std::bit_cast<std::uint64_t>(expected[z])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " threads=" << threads;
    }
  }
}

/// Property sweep: random graphs across sizes keep basic invariants.
class GraphPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphPropertyTest, GeneratedGraphsAreWellFormed) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 101);
  const Graph g = erdos_renyi_gnp(n, 0.5, rng);
  EXPECT_LE(g.num_edges(),
            static_cast<std::size_t>(n) * (n - 1) / 2);
  int degree_sum = 0;
  for (int u = 0; u < n; ++u) degree_sum += g.degree(u);
  EXPECT_EQ(degree_sum, static_cast<int>(2 * g.num_edges()));
}

TEST_P(GraphPropertyTest, MaxCutIsAtLeastHalfTheEdges) {
  // Classic bound: a random bisection cuts half the edges in expectation,
  // so the max cut is at least m/2.
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 777);
  const Graph g = erdos_renyi_gnp(n, 0.6, rng);
  if (g.num_edges() == 0) GTEST_SKIP();
  EXPECT_GE(max_cut_brute_force(g).value,
            static_cast<double>(g.num_edges()) / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphPropertyTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 10, 12));

}  // namespace
}  // namespace qaoaml::graph
