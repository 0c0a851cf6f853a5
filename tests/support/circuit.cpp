#include "support/circuit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace qaoaml::quantum {

bool is_parametric(GateKind kind) {
  switch (kind) {
    case GateKind::kRx:
    case GateKind::kRy:
    case GateKind::kRz:
    case GateKind::kPhase:
      return true;
    default:
      return false;
  }
}

bool is_two_qubit(GateKind kind) {
  return kind == GateKind::kCnot || kind == GateKind::kCz;
}

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::kH: return "h";
    case GateKind::kX: return "x";
    case GateKind::kY: return "y";
    case GateKind::kZ: return "z";
    case GateKind::kRx: return "rx";
    case GateKind::kRy: return "ry";
    case GateKind::kRz: return "rz";
    case GateKind::kPhase: return "p";
    case GateKind::kCnot: return "cnot";
    case GateKind::kCz: return "cz";
  }
  return "?";
}

double ParamExpr::evaluate(std::span<const double> params) const {
  if (index < 0) return offset;
  require(static_cast<std::size_t>(index) < params.size(),
          "ParamExpr: parameter index out of range");
  return offset + coeff * params[static_cast<std::size_t>(index)];
}

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits) {
  require(num_qubits >= 1, "Circuit: need at least one qubit");
}

void Circuit::check_qubit(int q) const {
  require(q >= 0 && q < num_qubits_, "Circuit: qubit index out of range");
}

void Circuit::push(GateKind kind, int q0, int q1, ParamExpr angle) {
  check_qubit(q0);
  if (is_two_qubit(kind)) {
    check_qubit(q1);
    require(q0 != q1, "Circuit: two-qubit gate needs distinct qubits");
  }
  if (is_parametric(kind) && angle.index >= 0) {
    num_parameters_ = std::max(num_parameters_, angle.index + 1);
  }
  ops_.push_back(Operation{kind, q0, q1, angle});
}

void Circuit::h(int q) { push(GateKind::kH, q, -1, {}); }
void Circuit::x(int q) { push(GateKind::kX, q, -1, {}); }
void Circuit::y(int q) { push(GateKind::kY, q, -1, {}); }
void Circuit::z(int q) { push(GateKind::kZ, q, -1, {}); }
void Circuit::rx(int q, ParamExpr angle) { push(GateKind::kRx, q, -1, angle); }
void Circuit::ry(int q, ParamExpr angle) { push(GateKind::kRy, q, -1, angle); }
void Circuit::rz(int q, ParamExpr angle) { push(GateKind::kRz, q, -1, angle); }
void Circuit::phase(int q, ParamExpr angle) {
  push(GateKind::kPhase, q, -1, angle);
}
void Circuit::cnot(int control, int target) {
  push(GateKind::kCnot, control, target, {});
}
void Circuit::cz(int a, int b) { push(GateKind::kCz, a, b, {}); }

void Circuit::append(const Circuit& other) {
  require(other.num_qubits_ == num_qubits_, "Circuit::append: qubit mismatch");
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  num_parameters_ = std::max(num_parameters_, other.num_parameters_);
}

void Circuit::apply_to(Amplitudes& amps,
                       std::span<const double> params) const {
  require(amps.size() == std::size_t{1} << num_qubits_,
          "Circuit::apply_to: state qubit count mismatch");
  require(static_cast<int>(params.size()) >= num_parameters_,
          "Circuit::apply_to: not enough parameters bound");
  for (const Operation& op : ops_) {
    switch (op.kind) {
      case GateKind::kH:
        apply_gate(amps, gates::hadamard(), op.q0);
        break;
      case GateKind::kX:
        apply_gate(amps, gates::pauli_x(), op.q0);
        break;
      case GateKind::kY:
        apply_gate(amps, gates::pauli_y(), op.q0);
        break;
      case GateKind::kZ:
        apply_gate(amps, gates::pauli_z(), op.q0);
        break;
      case GateKind::kRx:
        apply_gate(amps, gates::rx(op.angle.evaluate(params)), op.q0);
        break;
      case GateKind::kRy:
        apply_gate(amps, gates::ry(op.angle.evaluate(params)), op.q0);
        break;
      case GateKind::kRz:
        apply_rz(amps, op.q0, op.angle.evaluate(params));
        break;
      case GateKind::kPhase:
        apply_gate(amps, gates::phase(op.angle.evaluate(params)), op.q0);
        break;
      case GateKind::kCnot:
        apply_cnot(amps, op.q0, op.q1);
        break;
      case GateKind::kCz:
        apply_cz(amps, op.q0, op.q1);
        break;
    }
  }
}

Statevector Circuit::simulate(std::span<const double> params) const {
  Amplitudes amps = zero_state(num_qubits_);
  apply_to(amps, params);
  return Statevector::from_amplitudes(std::move(amps));
}

std::size_t Circuit::count(GateKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(ops_.begin(), ops_.end(),
                    [kind](const Operation& op) { return op.kind == kind; }));
}

int Circuit::depth() const {
  std::vector<int> level(static_cast<std::size_t>(num_qubits_), 0);
  int depth = 0;
  for (const Operation& op : ops_) {
    int start = level[static_cast<std::size_t>(op.q0)];
    if (is_two_qubit(op.kind)) {
      start = std::max(start, level[static_cast<std::size_t>(op.q1)]);
    }
    const int finish = start + 1;
    level[static_cast<std::size_t>(op.q0)] = finish;
    if (is_two_qubit(op.kind)) {
      level[static_cast<std::size_t>(op.q1)] = finish;
    }
    depth = std::max(depth, finish);
  }
  return depth;
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  for (const Operation& op : ops_) {
    os << gate_name(op.kind) << " q" << op.q0;
    if (is_two_qubit(op.kind)) os << ", q" << op.q1;
    if (is_parametric(op.kind)) {
      if (op.angle.index >= 0) {
        os << " (" << op.angle.coeff << "*p[" << op.angle.index << "]";
        if (op.angle.offset != 0.0) os << " + " << op.angle.offset;
        os << ")";
      } else {
        os << " (" << op.angle.offset << ")";
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace qaoaml::quantum
