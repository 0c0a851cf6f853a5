#include "core/qaoa_objective.hpp"

#include <cmath>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "core/angles.hpp"
#include "quantum/simd_kernels.hpp"

namespace qaoaml::core {
namespace {

// Checked before the 2^n cut table (and its 2^n integer copy) is built:
// a graph beyond the simulator's cap must not allocate gigabytes first.
const graph::Graph& validated(const graph::Graph& g, int depth) {
  require(depth >= 1, "MaxCutQaoa: depth must be >= 1");
  require(g.num_edges() >= 1, "MaxCutQaoa: graph needs at least one edge");
  require(g.num_nodes() <= quantum::kMaxQubits,
          "MaxCutQaoa: " + std::to_string(g.num_nodes()) +
              " nodes exceeds the simulator's " +
              std::to_string(quantum::kMaxQubits) + "-qubit cap");
  return g;
}

}  // namespace

MaxCutQaoa::MaxCutQaoa(graph::Graph g, int depth)
    : graph_(std::move(g)),
      depth_(depth),
      hamiltonian_(
          ising::DiagonalHamiltonian::maxcut(validated(graph_, depth))) {
  max_cut_ = hamiltonian_.max_value();

  // Detect an integral cut spectrum (always true for unit weights).
  integral_ = true;
  const std::vector<double>& diag = hamiltonian_.diagonal();
  int_diagonal_.resize(diag.size());
  for (std::size_t z = 0; z < diag.size(); ++z) {
    const double rounded = std::round(diag[z]);
    if (std::abs(diag[z] - rounded) > 1e-9 || rounded < 0.0 ||
        rounded > 1e6) {
      integral_ = false;
      break;
    }
    int_diagonal_[z] = static_cast<int>(rounded);
    max_int_value_ = std::max(max_int_value_, int_diagonal_[z]);
  }
  if (!integral_) int_diagonal_.clear();
}

std::size_t MaxCutQaoa::num_parameters() const { return num_angles(depth_); }

optim::Bounds MaxCutQaoa::bounds() const { return qaoa_bounds(depth_); }

quantum::Statevector MaxCutQaoa::state(std::span<const double> params) const {
  // Validate before allocating the 2^n workspace (up to 1 GiB at the
  // 26-qubit cap), and with this function's own name in the message.
  require(params.size() == num_parameters(),
          "MaxCutQaoa::state: wrong parameter count");
  quantum::Statevector sv = quantum::Statevector::uniform(graph_.num_nodes());
  state_into(sv, params);
  return sv;
}

void MaxCutQaoa::state_into(quantum::Statevector& sv,
                            std::span<const double> params) const {
  require(params.size() == num_parameters(),
          "MaxCutQaoa::state_into: wrong parameter count");

  // One tier lookup per state build, not per layer.
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  for (int stage = 0; stage < depth_; ++stage) {
    const double gamma = params[static_cast<std::size_t>(stage)];
    const double beta = params[static_cast<std::size_t>(depth_ + stage)];
    // The first layer writes the uniform start itself (no reset pass).
    const bool first = stage == 0;
    // int_diagonal_ entries are in [0, max_int_value_] by construction,
    // so the integral layer skips the per-call entry-range scan.
    if (integral_) {
      sv.apply_qaoa_layer_integral(int_diagonal_, gamma, max_int_value_, beta,
                                   /*entries_prevalidated=*/true, kernels,
                                   first);
    } else {
      sv.apply_qaoa_layer(hamiltonian_.diagonal(), gamma, beta, kernels,
                          first);
    }
  }
}

double MaxCutQaoa::expectation(std::span<const double> params) const {
  return state(params).expectation_diagonal(hamiltonian_.diagonal());
}

double MaxCutQaoa::expectation_using(quantum::Statevector& workspace,
                                     std::span<const double> params) const {
  state_into(workspace, params);
  return workspace.expectation_diagonal(hamiltonian_.diagonal());
}

double MaxCutQaoa::sampled_expectation(std::span<const double> params,
                                       int shots, Rng& rng) const {
  quantum::Statevector workspace =
      quantum::Statevector::uniform(num_qubits());
  std::vector<double> cdf;
  return sampled_expectation_using(workspace, cdf, params, shots, rng);
}

double MaxCutQaoa::sampled_expectation_using(quantum::Statevector& workspace,
                                             std::vector<double>& cdf,
                                             std::span<const double> params,
                                             int shots, Rng& rng) const {
  require(shots >= 1,
          "MaxCutQaoa::sampled_expectation: shots must be >= 1, got " +
              std::to_string(shots));
  state_into(workspace, params);
  workspace.cumulative_probabilities(cdf);
  const std::vector<double>& diag = hamiltonian_.diagonal();
  double acc = 0.0;
  for (int s = 0; s < shots; ++s) {
    acc += diag[quantum::Statevector::sample_cdf(cdf, rng.uniform())];
  }
  return acc / static_cast<double>(shots);
}

double MaxCutQaoa::evaluate_using(quantum::Statevector& workspace,
                                  std::vector<double>& cdf,
                                  std::span<const double> params,
                                  const EvalSpec& spec, Rng& rng) const {
  if (!spec.sampled()) return expectation_using(workspace, params);
  validate(spec);
  // One state preparation + one CDF serve every averaging repeat; the
  // mean of `averaging` equal-shot estimates is the mean of all draws.
  state_into(workspace, params);
  workspace.cumulative_probabilities(cdf);
  const std::vector<double>& diag = hamiltonian_.diagonal();
  const std::int64_t total =
      static_cast<std::int64_t>(spec.shots) * spec.averaging;
  double acc = 0.0;
  for (std::int64_t s = 0; s < total; ++s) {
    acc += diag[quantum::Statevector::sample_cdf(cdf, rng.uniform())];
  }
  return acc / static_cast<double>(total);
}

double MaxCutQaoa::approximation_ratio(std::span<const double> params) const {
  return expectation(params) / max_cut_;
}

optim::ObjectiveFn MaxCutQaoa::objective() const {
  return [this](std::span<const double> params) {
    return -expectation(params);
  };
}

optim::ObjectiveFn MaxCutQaoa::buffered_objective() const {
  auto workspace = std::make_shared<quantum::Statevector>(
      quantum::Statevector::uniform(num_qubits()));
  return [this, workspace](std::span<const double> params) {
    return -expectation_using(*workspace, params);
  };
}

optim::ObjectiveFn MaxCutQaoa::buffered_objective(
    const EvalSpec& spec, std::uint64_t stream_seed) const {
  if (!spec.sampled()) return buffered_objective();
  validate(spec);
  struct SampledState {
    quantum::Statevector workspace;
    std::vector<double> cdf;
    Rng rng;
  };
  auto state = std::make_shared<SampledState>(SampledState{
      quantum::Statevector::uniform(num_qubits()), {}, Rng(stream_seed)});
  return [this, state, spec, stream_seed](std::span<const double> params) {
    if (spec.seed_policy == SeedPolicy::kPerCall) state->rng = Rng(stream_seed);
    return -evaluate_using(state->workspace, state->cdf, params, spec,
                           state->rng);
  };
}

}  // namespace qaoaml::core
