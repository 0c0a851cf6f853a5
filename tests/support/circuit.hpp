// Parametric quantum circuit intermediate representation (test side).
//
// A Circuit is an ordered list of gate operations; rotation angles may be
// bound to entries of an external parameter vector through affine
// expressions (angle = offset + coeff * params[index]).  The library
// never builds one: the tests simulate explicit CNOT/RZ/RX ansatz
// circuits gate by gate with the serial loops of support/gates.hpp, as
// the reference oracle for the fused QAOA layer
// (support/qaoa_reference.hpp).
#ifndef QAOAML_TESTS_SUPPORT_CIRCUIT_HPP
#define QAOAML_TESTS_SUPPORT_CIRCUIT_HPP

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "quantum/statevector.hpp"
#include "support/gates.hpp"

namespace qaoaml::quantum {

/// Gate vocabulary of the IR.
enum class GateKind {
  kH,
  kX,
  kY,
  kZ,
  kRx,
  kRy,
  kRz,
  kPhase,
  kCnot,
  kCz,
};

/// True for RX/RY/RZ/Phase.
bool is_parametric(GateKind kind);

/// True for CNOT/CZ.
bool is_two_qubit(GateKind kind);

/// Short mnemonic ("h", "rx", "cnot", ...).
std::string gate_name(GateKind kind);

/// Affine angle expression: offset + coeff * params[index]; a negative
/// index means the angle is the constant `offset`.
struct ParamExpr {
  int index = -1;
  double coeff = 1.0;
  double offset = 0.0;

  /// Constant angle.
  static ParamExpr constant(double value) { return {-1, 0.0, value}; }

  /// coeff * params[index] + offset.
  static ParamExpr bound(int index, double coeff = 1.0, double offset = 0.0) {
    return {index, coeff, offset};
  }

  /// Evaluates against a bound parameter vector.
  double evaluate(std::span<const double> params) const;
};

/// One gate application.
struct Operation {
  GateKind kind = GateKind::kH;
  int q0 = 0;              ///< target (1q) or control (2q)
  int q1 = -1;             ///< target for 2q gates
  ParamExpr angle{};       ///< meaningful only for parametric kinds
};

/// Ordered gate list over a fixed qubit count.
class Circuit {
 public:
  explicit Circuit(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::size_t size() const { return ops_.size(); }
  const std::vector<Operation>& operations() const { return ops_; }

  /// Number of external parameters referenced (max index + 1).
  int num_parameters() const { return num_parameters_; }

  void h(int q);
  void x(int q);
  void y(int q);
  void z(int q);
  void rx(int q, ParamExpr angle);
  void ry(int q, ParamExpr angle);
  void rz(int q, ParamExpr angle);
  void phase(int q, ParamExpr angle);
  void cnot(int control, int target);
  void cz(int a, int b);

  /// Appends all operations of `other` (qubit counts must match).
  void append(const Circuit& other);

  /// Applies the circuit to `amps` (2^num_qubits() amplitudes);
  /// `params` must cover num_parameters().
  void apply_to(Amplitudes& amps, std::span<const double> params) const;

  /// Simulates from |0...0>.
  Statevector simulate(std::span<const double> params) const;

  /// Number of operations of the given kind.
  std::size_t count(GateKind kind) const;

  /// ASAP schedule depth (each gate occupies one level on its qubits).
  int depth() const;

  /// Human-readable one-line-per-gate listing.
  std::string to_string() const;

 private:
  void push(GateKind kind, int q0, int q1, ParamExpr angle);
  void check_qubit(int q) const;

  int num_qubits_ = 0;
  int num_parameters_ = 0;
  std::vector<Operation> ops_;
};

}  // namespace qaoaml::quantum

#endif  // QAOAML_TESTS_SUPPORT_CIRCUIT_HPP
