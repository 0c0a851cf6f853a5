// Multi-start driver: best-of-k optimization from random initial points.
//
// The paper's data-generation phase optimizes every instance "from 20
// random initializations" and keeps the best optimum; its naive baseline
// reports per-run statistics over the same random starts.  Both views
// are provided here.
#ifndef QAOAML_OPTIM_MULTISTART_HPP
#define QAOAML_OPTIM_MULTISTART_HPP

#include <vector>

#include "common/rng.hpp"
#include "optim/optimizer.hpp"

namespace qaoaml::optim {

/// Result of a multi-start run.
struct MultistartResult {
  OptimResult best;                ///< run with the lowest objective
  std::vector<OptimResult> runs;   ///< every individual run
  int total_nfev = 0;              ///< sum of nfev over all runs
};

/// Runs `minimize` from `restarts` initial points sampled uniformly in
/// `bounds` and returns all runs plus the best.  Restarts execute in
/// parallel (QAOAML_THREADS workers) sharing `fn`, so the objective must
/// be safe to call concurrently — e.g. core::DiagonalQaoa::objective(),
/// whose exact values are pure functions of the angles.  For objectives
/// that are not, use the factory overload below.  Results are deterministic: the initial
/// points are drawn from `rng` up front in restart order and each run
/// depends only on its own starting point.
MultistartResult multistart_minimize(OptimizerKind kind, const ObjectiveFn& fn,
                                     const Bounds& bounds, int restarts,
                                     Rng& rng, const Options& options = {});

/// Creates one objective per restart; the factory itself is called
/// concurrently but each produced objective is used by a single run.
/// This is how single-caller (workspace-owning) objectives go parallel.
using ObjectiveFactory = std::function<ObjectiveFn()>;
MultistartResult multistart_minimize_factory(OptimizerKind kind,
                                             const ObjectiveFactory& make_fn,
                                             const Bounds& bounds, int restarts,
                                             Rng& rng,
                                             const Options& options = {});

/// Samples one uniform point inside `bounds` (bounds must be finite).
std::vector<double> random_point(const Bounds& bounds, Rng& rng);

}  // namespace qaoaml::optim

#endif  // QAOAML_OPTIM_MULTISTART_HPP
