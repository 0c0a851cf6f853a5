#include "ising/ising_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qaoaml::ising {

IsingModel::IsingModel(int num_spins) : num_spins_(num_spins) {
  require(num_spins >= 1, "IsingModel: need at least one spin");
  fields_.assign(static_cast<std::size_t>(num_spins), 0.0);
}

IsingModel IsingModel::from_maxcut(const graph::Graph& g) {
  IsingModel model(g.num_nodes());
  // cut(s) = sum_{(u,v)} w_uv (1 - s_u s_v) / 2
  //        = W/2 - sum w_uv/2 * s_u s_v
  model.constant_ = g.total_weight() / 2.0;
  for (const graph::Edge& e : g.edges()) {
    model.add_coupling(e.u, e.v, -e.weight / 2.0);
  }
  return model;
}

void IsingModel::set_field(int i, double value) {
  require(i >= 0 && i < num_spins_, "IsingModel::set_field: out of range");
  fields_[static_cast<std::size_t>(i)] = value;
}

void IsingModel::add_coupling(int i, int j, double strength) {
  require(i >= 0 && i < num_spins_ && j >= 0 && j < num_spins_,
          "IsingModel::add_coupling: spin out of range");
  require(i != j, "IsingModel::add_coupling: i and j must differ");
  couplings_.push_back(Coupling{i, j, strength});
}

namespace {
inline double spin_of(std::uint64_t bits, int i) {
  return ((bits >> i) & 1ULL) == 0 ? 1.0 : -1.0;
}
}  // namespace

double IsingModel::energy(std::uint64_t bits) const {
  double acc = constant_;
  for (int i = 0; i < num_spins_; ++i) {
    acc += fields_[static_cast<std::size_t>(i)] * spin_of(bits, i);
  }
  for (const Coupling& c : couplings_) {
    acc += c.strength * spin_of(bits, c.i) * spin_of(bits, c.j);
  }
  return acc;
}

std::vector<double> IsingModel::diagonal() const {
  require(num_spins_ <= 26, "IsingModel::diagonal: supports up to 26 spins");
  const std::size_t dim = std::size_t{1} << num_spins_;
  std::vector<double> diag(dim);
  // Blocked over z like graph::cut_value_table: L1-sized chunks spread
  // over the pool, the term loops outermost inside a chunk.  Every entry
  // still starts at the constant and takes the fields, then the
  // couplings, each in term order — the same additions in the same
  // order as one pass per term, so the same bits.
  constexpr std::size_t kChunk = std::size_t{1} << 12;  // 32 KiB of doubles
  parallel_for_range(dim, [&](std::size_t begin, std::size_t end) {
    for (std::size_t lo = begin; lo < end; lo += kChunk) {
      const std::size_t hi = std::min(end, lo + kChunk);
      std::fill(diag.begin() + static_cast<std::ptrdiff_t>(lo),
                diag.begin() + static_cast<std::ptrdiff_t>(hi), constant_);
      for (int i = 0; i < num_spins_; ++i) {
        const double h = fields_[static_cast<std::size_t>(i)];
        if (h == 0.0) continue;
        for (std::size_t z = lo; z < hi; ++z) {
          diag[z] += ((z >> i) & 1U) == 0 ? h : -h;
        }
      }
      for (const Coupling& c : couplings_) {
        const int ci = c.i;
        const int cj = c.j;
        const double strength = c.strength;
        for (std::size_t z = lo; z < hi; ++z) {
          diag[z] += (((z >> ci) ^ (z >> cj)) & 1U) == 0 ? strength : -strength;
        }
      }
    }
  });
  return diag;
}

}  // namespace qaoaml::ising
