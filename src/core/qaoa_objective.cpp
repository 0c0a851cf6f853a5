#include "core/qaoa_objective.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
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

DiagonalQaoa::DiagonalQaoa(ising::DiagonalHamiltonian hamiltonian, int depth)
    : DiagonalQaoa(std::move(hamiltonian), depth, /*power_table=*/false) {}

DiagonalQaoa::DiagonalQaoa(ising::DiagonalHamiltonian hamiltonian, int depth,
                           bool power_table)
    : hamiltonian_(std::move(hamiltonian)), depth_(depth) {
  require(depth >= 1, "DiagonalQaoa: depth must be >= 1");

  // One blocked sweep finds the maximum, checks the flip symmetry
  // d(z) == d(~z) bit for bit (not ==: +0.0 and -0.0 give different
  // phase bits) and, for the power table, writes the integer copy of the
  // lower half.  A block stops checking at its first asymmetric pair and
  // stops writing at its first non-integral entry, and any such block
  // turns the half state or the table off.  Each block keeps its first
  // maximal entry and the blocks reduce in order, so max_value_ is the
  // entry std::max_element would return.
  struct Partial {
    double max;
    int max_int;
    bool integral;
    bool symmetric;
  };
  const std::vector<double>& diag = hamiltonian_.diagonal();
  const std::size_t dim = diag.size();
  const std::size_t half = dim / 2;
  std::vector<Partial> partials(
      (dim + kParallelGrain - 1) / kParallelGrain,
      Partial{-std::numeric_limits<double>::infinity(), 0, power_table,
              num_qubits() >= 2});
  if (power_table) int_diagonal_.resize(half);
  parallel_for_range(dim, [&](std::size_t begin, std::size_t end) {
    Partial& part = partials[begin / kParallelGrain];
    for (std::size_t z = begin; z < end; ++z) {
      if (diag[z] > part.max) part.max = diag[z];
      if (part.symmetric && z < half &&
          std::bit_cast<std::uint64_t>(diag[z]) !=
              std::bit_cast<std::uint64_t>(diag[dim - 1 - z])) {
        part.symmetric = false;
      }
      if (!part.integral) continue;
      const double rounded = std::round(diag[z]);
      if (std::abs(diag[z] - rounded) > 1e-9 || rounded < 0.0 ||
          rounded > 1e6) {
        part.integral = false;
        continue;
      }
      const int value = static_cast<int>(rounded);
      if (z < half) int_diagonal_[z] = value;
      part.max_int = std::max(part.max_int, value);
    }
  });
  bool integral = true;
  symmetric_ = true;
  max_value_ = partials.front().max;
  for (const Partial& part : partials) {
    if (part.max > max_value_) max_value_ = part.max;
    max_int_value_ = std::max(max_int_value_, part.max_int);
    integral = integral && part.integral;
    symmetric_ = symmetric_ && part.symmetric;
  }
  if (!integral || !symmetric_) std::vector<int>().swap(int_diagonal_);
}

std::size_t DiagonalQaoa::num_parameters() const { return num_angles(depth_); }

optim::Bounds DiagonalQaoa::bounds() const { return qaoa_bounds(depth_); }

quantum::Statevector DiagonalQaoa::state(
    std::span<const double> params) const {
  // Validate before allocating the 2^n workspace (up to 1 GiB at the
  // 26-qubit cap), and with this function's own name in the message.
  require(params.size() == num_parameters(),
          "DiagonalQaoa::state: wrong parameter count");
  quantum::Statevector sv(num_qubits());
  state_into(sv, params);
  return sv;
}

std::span<const double> DiagonalQaoa::half_diagonal() const {
  return {hamiltonian_.diagonal().data(), hamiltonian_.dimension() / 2};
}

void DiagonalQaoa::build_into(quantum::Statevector& sv,
                              std::span<const double> params) const {
  require(params.size() == num_parameters(),
          "DiagonalQaoa::state_into: wrong parameter count");

  // One tier lookup per state build, not per layer.
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  for (int stage = 0; stage < depth_; ++stage) {
    const double gamma = params[static_cast<std::size_t>(stage)];
    const double beta = params[static_cast<std::size_t>(depth_ + stage)];
    // The first layer writes the uniform start itself (no reset pass).
    const bool first = stage == 0;
    // int_diagonal_ entries are in [0, max_int_value_] by construction,
    // so the power-table layer skips the per-call entry-range scan.
    if (has_integer_spectrum()) {
      sv.apply_qaoa_layer_integral_mirrored(int_diagonal_, gamma,
                                            max_int_value_, beta,
                                            /*entries_prevalidated=*/true,
                                            kernels, first);
    } else if (symmetric_) {
      sv.apply_qaoa_layer_mirrored(half_diagonal(), gamma, beta, kernels,
                                   first);
    } else {
      sv.apply_qaoa_layer(hamiltonian_.diagonal(), gamma, beta, kernels,
                          first);
    }
  }
}

void DiagonalQaoa::state_into(quantum::Statevector& sv,
                              std::span<const double> params) const {
  build_into(sv, params);
  if (symmetric_) sv.expand_mirror();
}

double DiagonalQaoa::expectation(std::span<const double> params) const {
  require(params.size() == num_parameters(),
          "DiagonalQaoa::expectation: wrong parameter count");
  quantum::Statevector workspace(num_qubits());
  return expectation_using(workspace, params);
}

double DiagonalQaoa::expectation_using(quantum::Statevector& workspace,
                                       std::span<const double> params) const {
  build_into(workspace, params);
  return symmetric_
             ? workspace.expectation_diagonal_mirrored(half_diagonal())
             : workspace.expectation_diagonal(hamiltonian_.diagonal());
}

double DiagonalQaoa::sampled_expectation(std::span<const double> params,
                                         int shots, Rng& rng) const {
  quantum::Statevector workspace(num_qubits());
  std::vector<double> cdf;
  return evaluate_using(workspace, cdf, params,
                        EvalSpec::sampled_with(shots, 0), rng);
}

double DiagonalQaoa::evaluate_using(quantum::Statevector& workspace,
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

double DiagonalQaoa::approximation_ratio(
    std::span<const double> params) const {
  require(max_value_ > 0.0,
          "DiagonalQaoa::approximation_ratio: max value must be positive");
  return expectation(params) / max_value_;
}

optim::ObjectiveFn DiagonalQaoa::objective(const EvalSpec& spec,
                                           std::uint64_t stream_seed) const {
  validate(spec);
  // Idle workspaces, shared by the callable's copies.  A call borrows
  // one (or makes one when all are busy) and returns it, so concurrent
  // callers never share a state and warm calls allocate nothing.
  struct Workspace {
    quantum::Statevector state;
    std::vector<double> cdf;
  };
  struct Pool {
    std::mutex mutex;
    std::vector<std::unique_ptr<Workspace>> idle;
    std::mutex stream_mutex;  // serializes kStream calls on `stream`
    Rng stream;
  };
  auto pool = std::make_shared<Pool>();
  pool->stream = Rng(stream_seed);
  return [this, pool, spec, stream_seed](std::span<const double> params) {
    std::unique_ptr<Workspace> workspace;
    {
      const std::lock_guard<std::mutex> lock(pool->mutex);
      if (!pool->idle.empty()) {
        workspace = std::move(pool->idle.back());
        pool->idle.pop_back();
      }
    }
    if (!workspace) {
      workspace = std::make_unique<Workspace>(
          Workspace{quantum::Statevector(num_qubits()), {}});
    }
    double value = 0.0;
    if (!spec.sampled()) {
      value = -expectation_using(workspace->state, params);
    } else if (spec.seed_policy == SeedPolicy::kPerCall) {
      Rng rng(stream_seed);
      value = -evaluate_using(workspace->state, workspace->cdf, params, spec,
                              rng);
    } else {
      const std::lock_guard<std::mutex> lock(pool->stream_mutex);
      value = -evaluate_using(workspace->state, workspace->cdf, params, spec,
                              pool->stream);
    }
    const std::lock_guard<std::mutex> lock(pool->mutex);
    pool->idle.push_back(std::move(workspace));
    return value;
  };
}

MaxCutQaoa::MaxCutQaoa(graph::Graph g, int depth)
    : DiagonalQaoa(ising::DiagonalHamiltonian::maxcut(validated(g, depth)),
                   depth, /*power_table=*/true),
      graph_(std::move(g)) {}

}  // namespace qaoaml::core
