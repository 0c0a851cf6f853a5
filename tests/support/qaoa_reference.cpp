#include "support/qaoa_reference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "quantum/simd_kernels.hpp"
#include "support/gates.hpp"

namespace qaoaml::oracle {

namespace {

using quantum::Amplitudes;
using quantum::Complex;

/// amps[z] *= exp(-i gamma diag[z]) on the active SIMD tier.
void apply_phase(Amplitudes& amps, const std::vector<double>& diag,
                 double gamma) {
  require(diag.size() == amps.size(),
          "unfused oracle: diagonal length must equal dimension");
  quantum::simd::active_kernels().phase_general(amps.data(), diag.data(),
                                                gamma, amps.size());
}

/// amps[z] *= phases[diag[z]] with phases[k] = exp(-i k gamma), on the
/// active SIMD tier.
void apply_phase_integral(Amplitudes& amps, const std::vector<int>& diag,
                          double gamma, int max_value) {
  require(diag.size() == amps.size() && max_value >= 0,
          "unfused oracle: bad integral diagonal");
  for (const int d : diag) {
    require(d >= 0 && d <= max_value,
            "unfused oracle: diagonal entry outside [0, max_value]");
  }
  std::vector<Complex> phases(static_cast<std::size_t>(max_value) + 1);
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const double phi = -gamma * static_cast<double>(k);
    phases[k] = Complex{std::cos(phi), std::sin(phi)};
  }
  quantum::simd::active_kernels().phase_integral(amps.data(), diag.data(),
                                                 phases.data(), amps.size());
}

/// The mixer as n separate RX(beta) gate passes.
void apply_mixer_gates(Amplitudes& amps, int num_qubits, double beta) {
  const quantum::Gate1Q mixer = quantum::gates::rx(beta);
  for (int q = 0; q < num_qubits; ++q) quantum::apply_gate(amps, mixer, q);
}

}  // namespace

quantum::Circuit build_maxcut_ansatz(const graph::Graph& g, int p) {
  require(g.num_nodes() >= 2, "build_maxcut_ansatz: need >= 2 nodes");
  require(p >= 1, "build_maxcut_ansatz: depth must be >= 1");

  quantum::Circuit circuit(g.num_nodes());
  for (int q = 0; q < g.num_nodes(); ++q) circuit.h(q);

  for (int stage = 0; stage < p; ++stage) {
    const int gamma_index = stage;      // [gamma_1..gamma_p, ...]
    const int beta_index = p + stage;   // [..., beta_1..beta_p]
    // Phase separation: exp(-i gamma C) realized edge by edge.
    for (const graph::Edge& e : g.edges()) {
      circuit.cnot(e.u, e.v);
      circuit.rz(e.v, quantum::ParamExpr::bound(gamma_index, -e.weight));
      circuit.cnot(e.u, e.v);
    }
    // Mixing: the paper's parametric RX(beta) gate = exp(-i beta X / 2)
    // on every qubit.  (With beta in [0, pi] the box holds exactly one
    // period of the mixer; a 2*beta convention would fold two symmetric
    // copies of every optimum into the domain and scramble the trends.)
    for (int q = 0; q < g.num_nodes(); ++q) {
      circuit.rx(q, quantum::ParamExpr::bound(beta_index, 1.0));
    }
  }
  return circuit;
}

AnsatzCost ansatz_cost(const graph::Graph& g, int p) {
  const quantum::Circuit circuit = build_maxcut_ansatz(g, p);
  AnsatzCost cost;
  cost.cnot_count = circuit.count(quantum::GateKind::kCnot);
  cost.rz_count = circuit.count(quantum::GateKind::kRz);
  cost.rx_count = circuit.count(quantum::GateKind::kRx);
  cost.h_count = circuit.count(quantum::GateKind::kH);
  cost.depth = circuit.depth();
  return cost;
}

quantum::Circuit build_ising_ansatz(const ising::IsingModel& model,
                                    int depth) {
  require(depth >= 1, "build_ising_ansatz: depth must be >= 1");
  const int n = model.num_spins();
  require(n >= 1, "build_ising_ansatz: empty model");

  quantum::Circuit circuit(n);
  for (int q = 0; q < n; ++q) circuit.h(q);

  for (int stage = 0; stage < depth; ++stage) {
    const int gamma_index = stage;
    const int beta_index = depth + stage;
    // exp(-i gamma J Z_u Z_v) = CNOT . RZ(2 J gamma) . CNOT
    for (const ising::Coupling& c : model.couplings()) {
      circuit.cnot(c.i, c.j);
      circuit.rz(c.j, quantum::ParamExpr::bound(gamma_index, 2.0 * c.strength));
      circuit.cnot(c.i, c.j);
    }
    // exp(-i gamma h Z_u) = RZ(2 h gamma)
    for (int q = 0; q < n; ++q) {
      const double h = model.fields()[static_cast<std::size_t>(q)];
      if (h != 0.0) {
        circuit.rz(q, quantum::ParamExpr::bound(gamma_index, 2.0 * h));
      }
    }
    // Mixer RX(beta) = exp(-i beta X / 2), as in the MaxCut ansatz.
    for (int q = 0; q < n; ++q) {
      circuit.rx(q, quantum::ParamExpr::bound(beta_index, 1.0));
    }
  }
  return circuit;
}

double gate_level_expectation(const core::MaxCutQaoa& instance,
                              std::span<const double> params) {
  require(params.size() == instance.num_parameters(),
          "gate_level_expectation: wrong parameter count");
  return build_maxcut_ansatz(instance.problem_graph(), instance.depth())
      .simulate(params)
      .expectation_diagonal(instance.hamiltonian().diagonal());
}

double gate_level_expectation(const ising::IsingModel& model,
                              std::span<const double> params) {
  require(params.size() >= 2 && params.size() % 2 == 0,
          "gate_level_expectation: wrong parameter count");
  return build_ising_ansatz(model, static_cast<int>(params.size() / 2))
      .simulate(params)
      .expectation_diagonal(model.diagonal());
}

quantum::Statevector unfused_layer(const quantum::Statevector& state,
                                   const std::vector<double>& diag,
                                   double gamma, double beta) {
  Amplitudes amps = quantum::amplitudes_of(state);
  apply_phase(amps, diag, gamma);
  apply_mixer_gates(amps, state.num_qubits(), beta);
  return quantum::Statevector::from_amplitudes(std::move(amps));
}

quantum::Statevector unfused_layer_integral(const quantum::Statevector& state,
                                            const std::vector<int>& diag,
                                            double gamma, int max_value,
                                            double beta) {
  Amplitudes amps = quantum::amplitudes_of(state);
  apply_phase_integral(amps, diag, gamma, max_value);
  apply_mixer_gates(amps, state.num_qubits(), beta);
  return quantum::Statevector::from_amplitudes(std::move(amps));
}

quantum::Statevector unfused_reference_state(const core::MaxCutQaoa& instance,
                                             std::span<const double> params) {
  require(params.size() == instance.num_parameters(),
          "unfused_reference_state: wrong parameter count");
  const int depth = instance.depth();
  const int n = instance.num_qubits();
  const std::vector<double>& diag = instance.hamiltonian().diagonal();
  // An integral cut spectrum takes the power-table phase separator,
  // exp(-i gamma)^C(z), exactly as the library's state_into does.
  std::vector<int> int_diag;
  int max_value = 0;
  if (instance.has_integer_spectrum()) {
    int_diag.resize(diag.size());
    for (std::size_t z = 0; z < diag.size(); ++z) {
      int_diag[z] = static_cast<int>(std::round(diag[z]));
      max_value = std::max(max_value, int_diag[z]);
    }
  }

  Amplitudes amps = quantum::amplitudes_of(quantum::Statevector::uniform(n));
  for (int stage = 0; stage < depth; ++stage) {
    const double gamma = params[static_cast<std::size_t>(stage)];
    const double beta = params[static_cast<std::size_t>(depth + stage)];
    if (int_diag.empty()) {
      apply_phase(amps, diag, gamma);
    } else {
      apply_phase_integral(amps, int_diag, gamma, max_value);
    }
    apply_mixer_gates(amps, n, beta);
  }
  return quantum::Statevector::from_amplitudes(std::move(amps));
}

}  // namespace qaoaml::oracle
