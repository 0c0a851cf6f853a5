// Quickstart: solve a MaxCut instance with QAOA in ~40 lines.
//
//   build/examples/quickstart
//
// Builds a random 8-node graph, runs the depth-3 QAOA loop with
// L-BFGS-B from 10 random initializations, and reads out the best cut
// from the optimized quantum state.
#include <cstdio>

#include "core/angles.hpp"
#include "core/qaoa_solver.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"

using namespace qaoaml;

int main() {
  // 1. A problem instance: an Erdos-Renyi graph, as in the paper.
  Rng rng(7);
  const graph::Graph problem = graph::erdos_renyi_gnp(8, 0.5, rng);
  std::printf("problem: %d nodes, %zu edges\n", problem.num_nodes(),
              problem.num_edges());

  // 2. A QAOA instance of depth p = 3 (6 variational angles).
  const core::MaxCutQaoa instance(problem, 3);
  std::printf("QAOA depth %d: %zu parameters\n", instance.depth(),
              instance.num_parameters());

  // 3. The classical optimization loop (Fig. 1(a) of the paper):
  //    best of 10 random initializations with L-BFGS-B, ftol 1e-6.
  const core::MultistartRuns runs = core::solve_multistart(
      instance, optim::OptimizerKind::kLbfgsb, 10, rng);
  std::printf("optimized <C> = %.4f of max cut %.0f  (AR = %.4f, "
              "%d total QC calls)\n",
              runs.best.expectation, instance.max_value(),
              runs.best.approximation_ratio, runs.total_function_calls);

  // 4. Read out a solution: the most likely bitstring of the final state.
  const quantum::Statevector state = instance.state(runs.best.params);
  const std::vector<double> probs = state.probabilities();
  std::uint64_t best_z = 0;
  for (std::uint64_t z = 0; z < probs.size(); ++z) {
    if (probs[z] > probs[best_z]) best_z = z;
  }
  std::printf("most likely assignment: 0b");
  for (int q = problem.num_nodes() - 1; q >= 0; --q) {
    std::printf("%llu", static_cast<unsigned long long>((best_z >> q) & 1));
  }
  std::printf("  -> cut value %.0f\n", graph::cut_value(problem, best_z));

  // 5. Compare with the exact optimum (brute force).
  const graph::MaxCutResult exact = graph::max_cut_brute_force(problem);
  std::printf("exact MaxCut: %.0f\n", exact.value);
  return 0;
}
