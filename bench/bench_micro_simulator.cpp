// M1 micro-benchmarks: statevector throughput — the fused QAOA layer
// (integral-spectrum phase + mixer) across qubit counts, QAOA
// expectations and state builds (BM_StateIntoQ8 for the 8-qubit state
// build of the paper's workload, BM_QaoaObjectiveP2Q16 for a 16-qubit
// objective evaluation), and the multi-threaded kernels (the *Threads
// benchmarks sweep the worker count on a fixed 22-qubit state; compare
// Arg(1) vs Arg(8) for the intra-state scaling headline).
#include <benchmark/benchmark.h>

#include "common/parallel.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/qaoa_objective.hpp"
#include "graph/generators.hpp"
#include "quantum/statevector.hpp"

using namespace qaoaml;

namespace {

void BM_QaoaExpectationFast(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Rng rng(7);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const core::MaxCutQaoa instance(g, depth);
  std::vector<double> params = core::random_angles(depth, rng);
  for (auto _ : state) {
    params[0] += 1e-9;  // defeat value caching
    benchmark::DoNotOptimize(instance.expectation(params));
  }
}
BENCHMARK(BM_QaoaExpectationFast)->DenseRange(1, 6, 1);

// One 8-qubit state build, the unit of work of every optimizer call in
// the paper's workload: an ER G(8, 0.5) instance at depth Arg, into a
// reused workspace, on the detected SIMD tier.
void BM_StateIntoQ8(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Rng rng(11);
  const graph::Graph g = graph::erdos_renyi_gnp(8, 0.5, rng);
  const core::MaxCutQaoa instance(g, depth);
  std::vector<double> params = core::random_angles(depth, rng);
  quantum::Statevector workspace = quantum::Statevector::uniform(8);
  for (auto _ : state) {
    params[0] += 1e-12;
    instance.state_into(workspace, params);
    benchmark::DoNotOptimize(workspace.amplitudes().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StateIntoQ8)->Arg(2)->Arg(3)->Arg(5)
    ->Unit(benchmark::kMicrosecond);

// One full QAOA layer: integral phase separator + mixer on every qubit.
void BM_QaoaLayerFused(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  quantum::Statevector sv = quantum::Statevector::uniform(qubits);
  std::vector<int> diag(sv.dimension());
  for (std::size_t z = 0; z < diag.size(); ++z) {
    diag[z] = __builtin_popcountll(z);
  }
  for (auto _ : state) {
    sv.apply_qaoa_layer_integral(diag, 0.017, qubits, 0.41,
                                 /*entries_prevalidated=*/true);
  }
  state.SetItemsProcessed(state.iterations() * (1LL << qubits));
}
BENCHMARK(BM_QaoaLayerFused)->DenseRange(8, 24, 2);

// A p=2, 16-qubit QAOA objective evaluation through BatchEvaluator.
void BM_QaoaObjectiveP2Q16(benchmark::State& state) {
  Rng rng(7);
  const graph::Graph g = graph::random_regular(16, 3, rng);
  const core::MaxCutQaoa instance(g, 2);
  core::BatchEvaluator evaluator(instance);
  std::vector<double> params = core::random_angles(2, rng);
  for (auto _ : state) {
    params[0] += 1e-9;  // defeat value caching
    benchmark::DoNotOptimize(evaluator.expectation(params));
  }
}
BENCHMARK(BM_QaoaObjectiveP2Q16)->Unit(benchmark::kMicrosecond);

// ---- Threaded-kernel benchmarks -------------------------------------
// 22 qubits = 4M amplitudes (64 MiB of state): large enough that the
// blocked kernels dominate dispatch overhead.

constexpr int kThreadedQubits = 22;

void BM_ExpectationDiagonalThreads(benchmark::State& state) {
  const ScopedThreadCount guard(static_cast<int>(state.range(0)));
  const quantum::Statevector sv =
      quantum::Statevector::uniform(kThreadedQubits);
  std::vector<double> diag(sv.dimension());
  for (std::size_t z = 0; z < diag.size(); ++z) {
    diag[z] = static_cast<double>(__builtin_popcountll(z));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv.expectation_diagonal(diag));
  }
  state.SetItemsProcessed(state.iterations() * (1LL << kThreadedQubits));
}
BENCHMARK(BM_ExpectationDiagonalThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// One fused layer per iteration at 22 qubits, across worker counts:
// the per-thread-count profile of the fused sweeps.
void BM_QaoaLayerFusedThreads(benchmark::State& state) {
  const ScopedThreadCount guard(static_cast<int>(state.range(0)));
  quantum::Statevector sv = quantum::Statevector::uniform(kThreadedQubits);
  std::vector<int> diag(sv.dimension());
  for (std::size_t z = 0; z < diag.size(); ++z) {
    diag[z] = __builtin_popcountll(z);
  }
  for (auto _ : state) {
    sv.apply_qaoa_layer_integral(diag, 0.017, kThreadedQubits, 0.41,
                                 /*entries_prevalidated=*/true);
  }
  state.SetItemsProcessed(state.iterations() * (1LL << kThreadedQubits));
}
BENCHMARK(BM_QaoaLayerFusedThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// One full p=3 statevector evolution per iteration at 20 qubits: the
// end-to-end number behind the "2x with 8 threads" acceptance check.
void BM_QaoaEvolutionThreads(benchmark::State& state) {
  const ScopedThreadCount guard(static_cast<int>(state.range(0)));
  Rng rng(19);
  const graph::Graph g = graph::random_regular(20, 3, rng);
  const core::MaxCutQaoa instance(g, 3);
  core::BatchEvaluator evaluator(instance);
  std::vector<double> params = core::random_angles(3, rng);
  for (auto _ : state) {
    params[0] += 1e-9;  // defeat value caching
    benchmark::DoNotOptimize(evaluator.expectation(params));
  }
}
BENCHMARK(BM_QaoaEvolutionThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Batch of angle vectors on a mid-size instance: instance-level
// parallelism with reused workspaces (the data-generation shape).
void BM_BatchEvaluatorThreads(benchmark::State& state) {
  const ScopedThreadCount guard(static_cast<int>(state.range(0)));
  Rng rng(23);
  const graph::Graph g = graph::random_regular(16, 3, rng);
  const core::MaxCutQaoa instance(g, 3);
  const core::BatchEvaluator evaluator(instance);
  std::vector<std::vector<double>> batch;
  for (int i = 0; i < 32; ++i) batch.push_back(core::random_angles(3, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.expectations(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(batch.size()));
}
BENCHMARK(BM_BatchEvaluatorThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Buffered vs allocating expectation: the per-call 2^n allocation cost.
void BM_QaoaExpectationBuffered(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  Rng rng(11);
  const graph::Graph g = graph::random_regular(qubits, 3, rng);
  const core::MaxCutQaoa instance(g, 3);
  core::BatchEvaluator evaluator(instance);
  std::vector<double> params = core::random_angles(3, rng);
  for (auto _ : state) {
    params[0] += 1e-9;
    benchmark::DoNotOptimize(evaluator.expectation(params));
  }
}
BENCHMARK(BM_QaoaExpectationBuffered)->DenseRange(4, 16, 4);

void BM_QaoaExpectationQubits(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  Rng rng(11);
  const graph::Graph g = graph::random_regular(qubits, 3, rng);
  const core::MaxCutQaoa instance(g, 3);
  std::vector<double> params = core::random_angles(3, rng);
  for (auto _ : state) {
    params[0] += 1e-9;
    benchmark::DoNotOptimize(instance.expectation(params));
  }
}
BENCHMARK(BM_QaoaExpectationQubits)->DenseRange(4, 16, 4);

}  // namespace
