#include "support/gates.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/error.hpp"

namespace qaoaml::quantum {

namespace gates {

namespace {
constexpr Complex kI{0.0, 1.0};
}

Gate1Q identity() { return {{{1, 0}, {0, 1}}}; }

Gate1Q hadamard() {
  const double s = 1.0 / std::sqrt(2.0);
  return {{{s, s}, {s, -s}}};
}

Gate1Q pauli_x() { return {{{0, 1}, {1, 0}}}; }

Gate1Q pauli_y() { return {{{0, -kI}, {kI, 0}}}; }

Gate1Q pauli_z() { return {{{1, 0}, {0, -1}}}; }

Gate1Q rx(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {{{c, -kI * s}, {-kI * s, c}}};
}

Gate1Q ry(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  return {{{c, -s}, {s, c}}};
}

Gate1Q rz(double theta) {
  const Complex lo = std::exp(-kI * (theta / 2.0));
  const Complex hi = std::exp(kI * (theta / 2.0));
  return {{{lo, 0}, {0, hi}}};
}

Gate1Q phase(double phi) { return {{{1, 0}, {0, std::exp(kI * phi)}}}; }

Gate1Q multiply(const Gate1Q& a, const Gate1Q& b) {
  Gate1Q out{};
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      out.m[r][c] = a.m[r][0] * b.m[0][c] + a.m[r][1] * b.m[1][c];
    }
  }
  return out;
}

bool is_unitary(const Gate1Q& g, double tol) {
  // g^dagger * g must be the identity.
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      Complex acc = 0.0;
      for (int k = 0; k < 2; ++k) acc += std::conj(g.m[k][r]) * g.m[k][c];
      const Complex expected = (r == c) ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
      if (std::abs(acc - expected) > tol) return false;
    }
  }
  return true;
}

double distance_up_to_phase(const Gate1Q& a, const Gate1Q& b) {
  // Align phases on the largest-magnitude entry of a.
  int br = 0;
  int bc = 0;
  double best = 0.0;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      if (std::abs(a.m[r][c]) > best) {
        best = std::abs(a.m[r][c]);
        br = r;
        bc = c;
      }
    }
  }
  Complex phase{1.0, 0.0};
  if (std::abs(b.m[br][bc]) > 1e-15 && best > 1e-15) {
    phase = (a.m[br][bc] / std::abs(a.m[br][bc])) /
            (b.m[br][bc] / std::abs(b.m[br][bc]));
  }
  double dist = 0.0;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      dist = std::max(dist, std::abs(a.m[r][c] - phase * b.m[r][c]));
    }
  }
  return dist;
}

}  // namespace gates

namespace {

/// The index bit of qubit `q` in a state of `dim` amplitudes.
std::size_t qubit_bit(std::size_t dim, int q) {
  require(q >= 0 && q < 63 && (std::size_t{1} << q) < dim,
          "gate oracle: qubit index out of range");
  return std::size_t{1} << q;
}

}  // namespace

Amplitudes zero_state(int num_qubits) {
  require(num_qubits >= 1 && num_qubits <= kMaxQubits,
          "gate oracle: qubit count out of range");
  Amplitudes amps(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
  amps[0] = Complex{1.0, 0.0};
  return amps;
}

Amplitudes amplitudes_of(const Statevector& state) {
  return Amplitudes(state.amplitudes().begin(), state.amplitudes().end());
}

void apply_gate(Amplitudes& amps, const Gate1Q& gate, int target) {
  const std::size_t t = qubit_bit(amps.size(), target);
  for (std::size_t z = 0; z < amps.size(); ++z) {
    if ((z & t) != 0) continue;
    const Complex a0 = amps[z];
    const Complex a1 = amps[z | t];
    amps[z] = gate.m[0][0] * a0 + gate.m[0][1] * a1;
    amps[z | t] = gate.m[1][0] * a0 + gate.m[1][1] * a1;
  }
}

void apply_controlled(Amplitudes& amps, const Gate1Q& gate, int control,
                      int target) {
  const std::size_t c = qubit_bit(amps.size(), control);
  const std::size_t t = qubit_bit(amps.size(), target);
  require(c != t, "gate oracle: control and target must be distinct");
  for (std::size_t z = 0; z < amps.size(); ++z) {
    if ((z & c) == 0 || (z & t) != 0) continue;
    const Complex a0 = amps[z];
    const Complex a1 = amps[z | t];
    amps[z] = gate.m[0][0] * a0 + gate.m[0][1] * a1;
    amps[z | t] = gate.m[1][0] * a0 + gate.m[1][1] * a1;
  }
}

void apply_cnot(Amplitudes& amps, int control, int target) {
  const std::size_t c = qubit_bit(amps.size(), control);
  const std::size_t t = qubit_bit(amps.size(), target);
  require(c != t, "gate oracle: control and target must be distinct");
  for (std::size_t z = 0; z < amps.size(); ++z) {
    if ((z & c) != 0 && (z & t) == 0) std::swap(amps[z], amps[z | t]);
  }
}

void apply_cz(Amplitudes& amps, int a, int b) {
  const std::size_t mask =
      qubit_bit(amps.size(), a) | qubit_bit(amps.size(), b);
  require(a != b, "gate oracle: CZ qubits must be distinct");
  for (std::size_t z = 0; z < amps.size(); ++z) {
    if ((z & mask) == mask) amps[z] = -amps[z];
  }
}

void apply_rz(Amplitudes& amps, int target, double theta) {
  const std::size_t t = qubit_bit(amps.size(), target);
  const Complex lo = std::polar(1.0, -theta / 2.0);
  const Complex hi = std::polar(1.0, theta / 2.0);
  for (std::size_t z = 0; z < amps.size(); ++z) {
    amps[z] *= (z & t) == 0 ? lo : hi;
  }
}

double norm(std::span<const Complex> amps) {
  double acc = 0.0;
  for (const Complex& a : amps) acc += std::norm(a);
  return std::sqrt(acc);
}

Complex inner_product(std::span<const Complex> a, std::span<const Complex> b) {
  require(a.size() == b.size(), "gate oracle: state size mismatch");
  Complex acc{0.0, 0.0};
  for (std::size_t z = 0; z < a.size(); ++z) acc += std::conj(a[z]) * b[z];
  return acc;
}

double expectation_z(std::span<const Complex> amps, int target) {
  const std::size_t t = qubit_bit(amps.size(), target);
  double acc = 0.0;
  for (std::size_t z = 0; z < amps.size(); ++z) {
    acc += (z & t) == 0 ? std::norm(amps[z]) : -std::norm(amps[z]);
  }
  return acc;
}

}  // namespace qaoaml::quantum
