// Heap-allocation budget of warm objective evaluations.
//
// The paper's workload evaluates 8-qubit states hundreds of thousands
// of times, a few microseconds each, so a malloc/free pair per call is
// a measurable share of it.  This executable replaces the global
// operator new (every form) with a counting one and pins the budget of a
// warm evaluation at zero: the workspaces are reused, the checks build
// no message unless they fail, and the parallel helpers run their
// inline paths without type-erasing the body.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/eval_spec.hpp"
#include "core/qaoa_objective.hpp"
#include "graph/generators.hpp"
#include "ising/diagonal_hamiltonian.hpp"
#include "ising/ising_model.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(alignment,
                           (size + alignment - 1) / alignment * alignment);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace qaoaml {
namespace {

/// Allocations made by `calls` invocations of fn(k) after `warmup`
/// untimed ones.
template <typename Fn>
long allocations_per_batch(Fn&& fn, int warmup, int calls) {
  for (int k = 0; k < warmup; ++k) fn(k);
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int k = 0; k < calls; ++k) fn(k);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(Allocations, CounterSeesOrdinaryAllocations) {
  // The zero budgets below mean something only if the counter counts.
  const long before = g_allocations.load();
  std::vector<double>* volatile p = new std::vector<double>(100);
  delete p;
  EXPECT_GE(g_allocations.load() - before, 2);
}

TEST(Allocations, WarmBatchEvaluatorExpectationAllocatesNothing) {
  Rng rng(0xA110C);
  const graph::Graph unweighted = graph::erdos_renyi_gnp(8, 0.6, rng);
  const graph::Graph weighted =
      graph::with_random_weights(unweighted, 0.25, 1.75, rng);
  for (const graph::Graph* g : {&unweighted, &weighted}) {
    for (int p = 1; p <= 5; ++p) {
      const core::MaxCutQaoa instance(*g, p);
      core::BatchEvaluator evaluator(instance);
      std::vector<std::vector<double>> points;
      for (int k = 0; k < 8; ++k) points.push_back(core::random_angles(p, rng));
      double sink = 0.0;
      const long count = allocations_per_batch(
          [&](int k) {
            sink += evaluator.expectation(points[static_cast<std::size_t>(k % 8)]);
          },
          4, 64);
      EXPECT_EQ(count, 0) << "p=" << p << " integral="
                          << instance.has_integer_spectrum();
      EXPECT_TRUE(std::isfinite(sink));
    }
  }
}

TEST(Allocations, WarmObjectivesAllocateNothing) {
  // objective() in exact and both sampled seed policies, on the MaxCut
  // construction (power table) and on an Ising construction of the same
  // cost (general layer).
  Rng rng(0x0B1);
  const graph::Graph g = graph::erdos_renyi_gnp(8, 0.6, rng);
  const core::MaxCutQaoa maxcut(g, 3);
  const core::DiagonalQaoa ising(
      ising::DiagonalHamiltonian::from_ising(ising::IsingModel::from_maxcut(g)),
      3);
  const std::vector<double> params = core::random_angles(3, rng);
  core::EvalSpec per_call = core::EvalSpec::sampled_with(64, 0, 2);
  per_call.seed_policy = core::SeedPolicy::kPerCall;
  const core::EvalSpec specs[] = {core::EvalSpec::exact(),
                                  core::EvalSpec::sampled_with(64, 0, 2),
                                  per_call};
  double sink = 0.0;
  for (const core::DiagonalQaoa* instance :
       {static_cast<const core::DiagonalQaoa*>(&maxcut), &ising}) {
    for (const core::EvalSpec& spec : specs) {
      const optim::ObjectiveFn objective = instance->objective(spec, 5);
      EXPECT_EQ(
          allocations_per_batch([&](int) { sink += objective(params); }, 2, 32),
          0)
          << core::to_string(spec)
          << " power_table=" << instance->has_integer_spectrum();
    }
  }
  EXPECT_TRUE(std::isfinite(sink));
}

}  // namespace
}  // namespace qaoaml
