#include "core/ising_qaoa.hpp"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/angles.hpp"
#include "quantum/simd_kernels.hpp"

namespace qaoaml::core {

IsingQaoa::IsingQaoa(ising::IsingModel model, int depth)
    : model_(std::move(model)),
      depth_(depth),
      hamiltonian_(ising::DiagonalHamiltonian::from_ising(model_)) {
  require(depth >= 1, "IsingQaoa: depth must be >= 1");
  max_value_ = hamiltonian_.max_value();
}

std::size_t IsingQaoa::num_parameters() const { return num_angles(depth_); }

optim::Bounds IsingQaoa::bounds() const { return qaoa_bounds(depth_); }

quantum::Statevector IsingQaoa::state(std::span<const double> params) const {
  require(params.size() == num_parameters(),
          "IsingQaoa::state: wrong parameter count");
  quantum::Statevector sv(model_.num_spins());
  state_into(sv, params);
  return sv;
}

void IsingQaoa::state_into(quantum::Statevector& sv,
                           std::span<const double> params) const {
  require(params.size() == num_parameters(),
          "IsingQaoa::state_into: wrong parameter count");
  // One tier lookup per state build, not per layer.
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  for (int stage = 0; stage < depth_; ++stage) {
    const double gamma = params[static_cast<std::size_t>(stage)];
    const double beta = params[static_cast<std::size_t>(depth_ + stage)];
    // The first layer writes the uniform start itself (no reset pass).
    sv.apply_qaoa_layer(hamiltonian_.diagonal(), gamma, beta, kernels,
                        /*uniform_input=*/stage == 0);
  }
}

double IsingQaoa::expectation(std::span<const double> params) const {
  return state(params).expectation_diagonal(hamiltonian_.diagonal());
}

double IsingQaoa::expectation_using(quantum::Statevector& workspace,
                                    std::span<const double> params) const {
  state_into(workspace, params);
  return workspace.expectation_diagonal(hamiltonian_.diagonal());
}

double IsingQaoa::approximation_ratio(std::span<const double> params) const {
  require(max_value_ > 0.0,
          "IsingQaoa::approximation_ratio: max value must be positive");
  return expectation(params) / max_value_;
}

optim::ObjectiveFn IsingQaoa::objective() const {
  // Idle workspaces, shared by the callable's copies.  A call borrows
  // one (or makes one when all are busy) and returns it, so concurrent
  // callers never share a state and warm calls allocate nothing.
  struct Workspaces {
    std::mutex mutex;
    std::vector<std::unique_ptr<quantum::Statevector>> idle;
  };
  auto pool = std::make_shared<Workspaces>();
  return [this, pool](std::span<const double> params) {
    std::unique_ptr<quantum::Statevector> workspace;
    {
      const std::lock_guard<std::mutex> lock(pool->mutex);
      if (!pool->idle.empty()) {
        workspace = std::move(pool->idle.back());
        pool->idle.pop_back();
      }
    }
    if (!workspace) {
      workspace = std::make_unique<quantum::Statevector>(num_qubits());
    }
    const double value = -expectation_using(*workspace, params);
    const std::lock_guard<std::mutex> lock(pool->mutex);
    pool->idle.push_back(std::move(workspace));
    return value;
  };
}

}  // namespace qaoaml::core
