#include "core/batch_evaluator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qaoaml::core {
namespace {

/// Runs body(chunk_begin, chunk_end) over contiguous chunks of
/// [0, count), one per worker; one workspace per chunk is the allocation
/// unit of every batch entry point.
///
/// `max_qubits` is the largest instance size in the batch: when the
/// batch is too small to occupy the pool AND the states are big enough
/// for amplitude-range sharding, everything runs as ONE chunk on the
/// calling thread — parallel_for's single-index fast path executes it
/// inline without entering a pool region, so each evaluation's
/// amplitude kernels fan out over the whole pool instead of one batch
/// entry pinning one thread while the rest idle.
template <typename Body>
void for_each_chunk(std::size_t count, int max_qubits, Body&& body) {
  const int threads = default_thread_count();
  parallel_for_chunks(
      count,
      BatchEvaluator::shards_amplitudes(count, max_qubits, threads)
          ? std::size_t{1}
          : static_cast<std::size_t>(threads),
      body);
}

}  // namespace

bool BatchEvaluator::shards_amplitudes(std::size_t batch_size, int num_qubits,
                                       int threads) {
  if (num_qubits <= 0 || num_qubits >= 64) return false;
  return batch_size < static_cast<std::size_t>(std::max(threads, 1)) &&
         (std::size_t{1} << num_qubits) >= quantum::kAmplitudeParallelDim;
}

BatchEvaluator::BatchEvaluator(const DiagonalQaoa& instance)
    : instance_(&instance), workspace_(instance.num_qubits()) {}

double BatchEvaluator::expectation(std::span<const double> params) {
  return instance_->expectation_using(workspace_, params);
}

double BatchEvaluator::evaluate(std::span<const double> params,
                                const EvalSpec& spec) {
  Rng rng(spec.seed);
  return instance_->evaluate_using(workspace_, cdf_workspace_, params, spec,
                                   rng);
}

std::vector<double> BatchEvaluator::expectations(
    std::span<const std::vector<double>> batch) const {
  std::vector<double> values(batch.size());
  for_each_chunk(batch.size(), instance_->num_qubits(),
                 [&](std::size_t begin, std::size_t end) {
                   quantum::Statevector workspace(instance_->num_qubits());
                   for (std::size_t i = begin; i < end; ++i) {
                     values[i] =
                         instance_->expectation_using(workspace, batch[i]);
                   }
                 });
  return values;
}

std::vector<double> BatchEvaluator::evaluations(
    std::span<const BatchJob> jobs) {
  int max_qubits = 0;
  for (const BatchJob& job : jobs) {
    require(job.instance != nullptr,
            "BatchEvaluator::evaluations: null instance in batch");
    validate(job.eval);
    max_qubits = std::max(max_qubits, job.instance->num_qubits());
  }
  std::vector<double> values(jobs.size());
  for_each_chunk(
      jobs.size(), max_qubits, [&](std::size_t begin, std::size_t end) {
        // A state build only reallocates when the qubit count changes,
        // so a chunk of same-size instances reuses one buffer
        // throughout.
        quantum::Statevector workspace(jobs[begin].instance->num_qubits());
        std::vector<double> cdf;
        for (std::size_t i = begin; i < end; ++i) {
          // Each sampled job gets a fresh stream from its own spec
          // seed, so the value never depends on chunk mates or batch
          // position.
          Rng rng(jobs[i].eval.seed);
          values[i] = jobs[i].instance->evaluate_using(
              workspace, cdf, jobs[i].params, jobs[i].eval, rng);
        }
      });
  return values;
}

}  // namespace qaoaml::core
