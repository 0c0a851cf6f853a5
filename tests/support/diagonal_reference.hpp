// Test-side reference builds of the cost diagonals.
//
// The library builds graph::cut_value_table and IsingModel::diagonal
// blocked over z (L1-sized chunks across the thread pool, the term loop
// inside each chunk).  These are the plain one-pass-per-term loops it
// replaced: every entry takes the same additions in the same term
// order, so the tests compare the two with bitwise equality.
#ifndef QAOAML_TESTS_SUPPORT_DIAGONAL_REFERENCE_HPP
#define QAOAML_TESTS_SUPPORT_DIAGONAL_REFERENCE_HPP

#include <vector>

#include "graph/graph.hpp"
#include "ising/ising_model.hpp"

namespace qaoaml::oracle {

/// Cut value of every assignment, one pass over the table per edge.
std::vector<double> cut_value_table_edge_by_edge(const graph::Graph& g);

/// The Ising energies of every configuration, one pass per field and
/// then one per coupling, starting from the constant.
std::vector<double> ising_diagonal_term_by_term(const ising::IsingModel& model);

}  // namespace qaoaml::oracle

#endif  // QAOAML_TESTS_SUPPORT_DIAGONAL_REFERENCE_HPP
