// Closed-form depth-1 MaxCut QAOA expectation: an oracle at any size.
//
// At p = 1 the expectation of each edge term depends only on the edge's
// neighbourhood (Wang, Hadfield, Jiang & Rieffel, arXiv:1706.02998; the
// weighted form follows the same light-cone argument, cf. Ozaeta, van
// Dam & McMahon, arXiv:2012.03421, and Streif & Leib,
// arXiv:1908.08862).  Written for the library's conventions — phase
// exp(-i gamma C), mixer RX(beta) = exp(-i beta X / 2) on every qubit,
// C = sum_e w_e (1 - Z_u Z_v) / 2 — with a = gamma w / 2 per edge
// (a = 0 for a non-edge) and b = beta / 2:
//
//   <Z_u Z_v> = -sin(4b)/2 * sin(2 a_uv) * (P_u + P_v)
//               + sin^2(2b)/2 * (Q_- - Q_+)
//   P_u  = prod_{k != u, v} cos(2 a_uk)
//   Q_-+ = prod_{k != u, v} cos(2 (a_uk -+ a_vk))
//   <C>  = sum_e w_e (1 - <Z_u Z_v>) / 2.
//
// It costs O(|E| n) and shares no code with the statevector, so it
// checks the simulator's real schedule (both passes, the half state) at
// sizes no gate-level or unfused oracle reaches.  It agrees with the
// statevector to rounding (~1e-15 per edge), not bitwise.
#ifndef QAOAML_TESTS_SUPPORT_CLOSED_FORM_HPP
#define QAOAML_TESTS_SUPPORT_CLOSED_FORM_HPP

#include "graph/graph.hpp"

namespace qaoaml::oracle {

/// <C>(gamma, beta) of the depth-1 MaxCut QAOA state of `g`.
double maxcut_p1_expectation(const graph::Graph& g, double gamma, double beta);

}  // namespace qaoaml::oracle

#endif  // QAOAML_TESTS_SUPPORT_CLOSED_FORM_HPP
