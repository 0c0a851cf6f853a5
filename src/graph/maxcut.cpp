#include "graph/maxcut.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qaoaml::graph {

double cut_value(const Graph& g, std::uint64_t assignment) {
  double acc = 0.0;
  for (const Edge& e : g.edges()) {
    const std::uint64_t side_u = (assignment >> e.u) & 1ULL;
    const std::uint64_t side_v = (assignment >> e.v) & 1ULL;
    if (side_u != side_v) acc += e.weight;
  }
  return acc;
}

MaxCutResult max_cut_brute_force(const Graph& g) {
  require(g.num_nodes() >= 1 && g.num_nodes() <= 30,
          "max_cut_brute_force: supports 1..30 nodes");
  MaxCutResult best;
  const std::uint64_t half = 1ULL << (g.num_nodes() - 1);
  // Node 0 pinned to side 0: cuts are invariant under global flip.
  for (std::uint64_t z = 0; z < half; ++z) {
    const std::uint64_t assignment = z << 1;
    const double value = cut_value(g, assignment);
    if (value > best.value) {
      best.value = value;
      best.assignment = assignment;
    }
  }
  return best;
}

std::vector<double> cut_value_table(const Graph& g) {
  require(g.num_nodes() >= 1 && g.num_nodes() <= 30,
          "cut_value_table: supports 1..30 nodes");
  const std::size_t dim = std::size_t{1} << g.num_nodes();
  std::vector<double> table(dim, 0.0);
  // Each edge adds its weight to exactly the assignments where its
  // endpoints differ, and every entry takes those additions in edge
  // order.  The build is blocked over z: L1-sized chunks spread over the
  // pool, and inside a chunk the edge loop is outermost, so each edge is
  // one stride-1 sweep over a hot chunk instead of one pass over the
  // whole table.  The sweep adds the weight's bits masked to +0.0 where
  // the edge is not cut, which leaves the entry's bits alone (entries
  // start at +0.0 and so never hold -0.0): the table is bit-identical to
  // one pass per edge.
  constexpr int kChunkBits = 12;  // 32 KiB of doubles
  constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;
  const std::vector<Edge>& edges = g.edges();
  double* out = table.data();
  parallel_for_range(dim, [&](std::size_t begin, std::size_t end) {
    for (std::size_t lo = begin; lo < end; lo += kChunk) {
      const std::size_t hi = std::min(end, lo + kChunk);
      for (const Edge& e : edges) {
        const int u = e.u;  // u < v
        const int v = e.v;
        if (u >= kChunkBits) {
          // Both endpoints lie above the chunk: cut everywhere or nowhere.
          if ((((lo >> u) ^ (lo >> v)) & 1U) != 0) {
            for (std::size_t z = lo; z < hi; ++z) out[z] += e.weight;
          }
          continue;
        }
        const std::uint64_t weight_bits = std::bit_cast<std::uint64_t>(e.weight);
        for (std::size_t z = lo; z < hi; ++z) {
          const std::uint64_t cut = ((z >> u) ^ (z >> v)) & 1U;
          out[z] += std::bit_cast<double>(weight_bits & (0 - cut));
        }
      }
    }
  });
  return table;
}

}  // namespace qaoaml::graph
