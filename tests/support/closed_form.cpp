#include "support/closed_form.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

namespace qaoaml::oracle {

double maxcut_p1_expectation(const graph::Graph& g, double gamma,
                             double beta) {
  const int n = g.num_nodes();
  const auto at = [n](int u, int v) {
    return static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(v);
  };
  // a[u][v] = gamma * w_uv / 2, zero for non-edges.
  std::vector<double> a(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (const graph::Edge& e : g.edges()) {
    a[at(e.u, e.v)] += gamma * e.weight / 2.0;
    a[at(e.v, e.u)] += gamma * e.weight / 2.0;
  }
  const double b = beta / 2.0;
  const double s4 = std::sin(4.0 * b);
  const double s2 = std::sin(2.0 * b);
  double total = 0.0;
  for (const graph::Edge& e : g.edges()) {
    const int u = e.u;
    const int v = e.v;
    double p_u = 1.0, p_v = 1.0, q_minus = 1.0, q_plus = 1.0;
    for (int k = 0; k < n; ++k) {
      if (k == u || k == v) continue;
      const double auk = a[at(u, k)];
      const double avk = a[at(v, k)];
      p_u *= std::cos(2.0 * auk);
      p_v *= std::cos(2.0 * avk);
      q_minus *= std::cos(2.0 * (auk - avk));
      q_plus *= std::cos(2.0 * (auk + avk));
    }
    const double zz = -s4 / 2.0 * std::sin(2.0 * a[at(u, v)]) * (p_u + p_v) +
                      s2 * s2 / 2.0 * (q_minus - q_plus);
    total += e.weight * (1.0 - zz) / 2.0;
  }
  return total;
}

}  // namespace qaoaml::oracle
