#include "core/ising_qaoa.hpp"

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
  quantum::Statevector sv =
      quantum::Statevector::uniform(model_.num_spins());
  // One tier lookup per state build, not per layer.
  const quantum::simd::KernelTable& kernels = quantum::simd::active_kernels();
  for (int stage = 0; stage < depth_; ++stage) {
    const double gamma = params[static_cast<std::size_t>(stage)];
    const double beta = params[static_cast<std::size_t>(depth_ + stage)];
    sv.apply_qaoa_layer(hamiltonian_.diagonal(), gamma, beta, kernels);
  }
  return sv;
}

double IsingQaoa::expectation(std::span<const double> params) const {
  return state(params).expectation_diagonal(hamiltonian_.diagonal());
}

double IsingQaoa::approximation_ratio(std::span<const double> params) const {
  require(max_value_ > 0.0,
          "IsingQaoa::approximation_ratio: max value must be positive");
  return expectation(params) / max_value_;
}

optim::ObjectiveFn IsingQaoa::objective() const {
  return [this](std::span<const double> params) {
    return -expectation(params);
  };
}

}  // namespace qaoaml::core
