#include "support/diagonal_reference.hpp"

#include <cstdint>

namespace qaoaml::oracle {

std::vector<double> cut_value_table_edge_by_edge(const graph::Graph& g) {
  const std::uint64_t dim = 1ULL << g.num_nodes();
  std::vector<double> table(dim, 0.0);
  for (const graph::Edge& e : g.edges()) {
    const std::uint64_t mask_u = 1ULL << e.u;
    const std::uint64_t mask_v = 1ULL << e.v;
    for (std::uint64_t z = 0; z < dim; ++z) {
      if (((z & mask_u) != 0) != ((z & mask_v) != 0)) table[z] += e.weight;
    }
  }
  return table;
}

std::vector<double> ising_diagonal_term_by_term(
    const ising::IsingModel& model) {
  const int n = model.num_spins();
  const std::uint64_t dim = 1ULL << n;
  std::vector<double> diag(dim, model.constant());
  for (int i = 0; i < n; ++i) {
    const double h = model.fields()[static_cast<std::size_t>(i)];
    if (h == 0.0) continue;
    const std::uint64_t mask = 1ULL << i;
    for (std::uint64_t z = 0; z < dim; ++z) {
      diag[z] += ((z & mask) == 0) ? h : -h;
    }
  }
  for (const ising::Coupling& c : model.couplings()) {
    const std::uint64_t mi = 1ULL << c.i;
    const std::uint64_t mj = 1ULL << c.j;
    for (std::uint64_t z = 0; z < dim; ++z) {
      const bool same = ((z & mi) == 0) == ((z & mj) == 0);
      diag[z] += same ? c.strength : -c.strength;
    }
  }
  return diag;
}

}  // namespace qaoaml::oracle
