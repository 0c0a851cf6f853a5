// EDA scenario: balanced bipartitioning of a small netlist with QAOA
// over a general Ising objective.
//
// Min-cut balanced partitioning = maximize
//     sum_{(u,v) in nets} w_uv * [u, v on the same side]
//     - lambda * (imbalance)^2
// which in spin variables (s_i = +-1 for the two sides) is the Ising
// model
//     E(s) = const + sum_{(u,v)} (w_uv / 2) s_u s_v
//                  - 2 lambda sum_{i<j} s_i s_j .
// This runs the library's DiagonalQaoa over the model's diagonal
// (couplings on *all* pairs: wire terms on nets, balance terms
// everywhere) plus the standard hybrid post-processing step: sample the
// optimized state and greedily refine the best sample with pairwise
// swaps.
//
//   build/examples/netlist_partitioning
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/angles.hpp"
#include "core/qaoa_objective.hpp"
#include "graph/graph.hpp"
#include "graph/maxcut.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "ising/ising_model.hpp"
#include "optim/multistart.hpp"

using namespace qaoaml;

namespace {

/// A tiny synthetic standard-cell netlist: 8 cells, weighted nets
/// (weight = number of wires between the two cells).  Two natural
/// clusters {0..3} and {4..7} with sparse cross-cluster wiring.
graph::Graph demo_netlist() {
  graph::Graph g(8);
  g.add_edge(0, 1, 3.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 3, 3.0);
  g.add_edge(2, 3, 2.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(4, 5, 3.0);
  g.add_edge(4, 6, 2.0);
  g.add_edge(5, 7, 2.0);
  g.add_edge(6, 7, 3.0);
  g.add_edge(1, 4, 1.0);
  g.add_edge(3, 6, 1.0);
  return g;
}

int side_count(std::uint64_t mask, int n) {
  int ones = 0;
  for (int i = 0; i < n; ++i) ones += (mask >> i) & 1;
  return ones;
}

/// Greedy refinement: swap one cell pair across the cut while it lowers
/// crossings (keeps balance by construction).
std::uint64_t refine_by_swaps(const graph::Graph& netlist,
                              std::uint64_t mask) {
  const int n = netlist.num_nodes();
  bool improved = true;
  while (improved) {
    improved = false;
    for (int a = 0; a < n && !improved; ++a) {
      if (((mask >> a) & 1) != 0) continue;
      for (int b = 0; b < n && !improved; ++b) {
        if (((mask >> b) & 1) != 1) continue;
        const std::uint64_t swapped =
            mask ^ (1ULL << a) ^ (1ULL << b);
        if (graph::cut_value(netlist, swapped) <
            graph::cut_value(netlist, mask)) {
          mask = swapped;
          improved = true;
        }
      }
    }
  }
  return mask;
}

}  // namespace

int main() {
  const graph::Graph netlist = demo_netlist();
  const int n = netlist.num_nodes();
  std::printf("netlist: %d cells, %zu nets, %.0f wires total\n", n,
              netlist.num_edges(), netlist.total_weight());

  // Balanced min-cut as a general Ising maximization.
  const double lambda = 1.0;
  ising::IsingModel model(n);
  model.set_constant(netlist.total_weight() / 2.0 - lambda * n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      double wire = 0.0;
      for (const graph::Edge& e : netlist.edges()) {
        if (e.u == u && e.v == v) wire = e.weight;
      }
      model.add_coupling(u, v, wire / 2.0 - 2.0 * lambda);
    }
  }

  const core::DiagonalQaoa instance(
      ising::DiagonalHamiltonian::from_ising(model), 3);
  std::printf("Ising model: %d spins, %zu pair couplings\n",
              model.num_spins(), model.couplings().size());

  // The classical loop, composed from the optim layer directly.
  Rng rng(99);
  const optim::MultistartResult search = optim::multistart_minimize(
      optim::OptimizerKind::kLbfgsb, instance.objective(), instance.bounds(),
      12, rng);
  std::printf("QAOA (p=3, L-BFGS-B, best of 12): <E> = %.3f of max %.3f, "
              "%d QC calls\n",
              -search.best.fun, instance.max_value(), search.total_nfev);

  // Hardware-style readout + greedy swap refinement.
  const quantum::Statevector state = instance.state(search.best.x);
  std::vector<double> cdf;
  state.cumulative_probabilities(cdf);
  std::uint64_t best_mask = 0;
  double best_energy = -1e300;
  for (int shot = 0; shot < 512; ++shot) {
    const std::uint64_t z =
        quantum::Statevector::sample_cdf(cdf, rng.uniform());
    const double e = instance.hamiltonian().value(z);
    if (e > best_energy) {
      best_energy = e;
      best_mask = z;
    }
  }
  std::printf("best sampled partition: %d vs %d cells, %.0f crossing wires\n",
              n - side_count(best_mask, n), side_count(best_mask, n),
              graph::cut_value(netlist, best_mask));

  best_mask = refine_by_swaps(netlist, best_mask);
  std::printf("after greedy swap refinement: left = {");
  for (int cell = 0; cell < n; ++cell) {
    if (((best_mask >> cell) & 1) == 0) std::printf(" %d", cell);
  }
  std::printf(" }, crossings = %.0f\n", graph::cut_value(netlist, best_mask));

  // Exact reference: best balanced partition by brute force.
  double best_cross = 1e300;
  for (std::uint64_t z = 0; z < (1ULL << n); ++z) {
    if (side_count(z, n) != n / 2) continue;
    best_cross = std::min(best_cross, graph::cut_value(netlist, z));
  }
  std::printf("optimal balanced crossing count (brute force): %.0f\n",
              best_cross);
  return 0;
}
