#include "core/batch_evaluator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qaoaml::core {
namespace {

/// Splits [0, count) into `chunks` contiguous ranges and runs
/// body(chunk_begin, chunk_end) for each in parallel.  One workspace per
/// chunk is the allocation unit of every batch entry point.
///
/// `max_qubits` is the largest instance size in the batch: when the
/// batch is too small to occupy the pool AND the states are big enough
/// for amplitude-range sharding, everything runs as ONE chunk on the
/// calling thread — parallel_for's single-index fast path executes it
/// inline without entering a pool region, so each evaluation's
/// amplitude kernels fan out over the whole pool instead of one batch
/// entry pinning one thread while the rest idle.
void for_each_chunk(
    std::size_t count, int max_qubits,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const int threads = default_thread_count();
  const std::size_t chunks =
      BatchEvaluator::shards_amplitudes(count, max_qubits, threads)
          ? std::size_t{1}
          : std::min<std::size_t>(
                static_cast<std::size_t>(std::max(threads, 1)), count);
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  parallel_for(chunks, [&](std::size_t c) {
    // Chunks 0..extra-1 carry one extra entry.
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    body(begin, end);
  });
}

/// Largest qubit count in a job batch (jobs are pre-validated non-null).
int max_job_qubits(std::span<const BatchJob> jobs) {
  int max_qubits = 0;
  for (const BatchJob& job : jobs) {
    max_qubits = std::max(max_qubits, job.instance->num_qubits());
  }
  return max_qubits;
}

}  // namespace

bool BatchEvaluator::shards_amplitudes(std::size_t batch_size, int num_qubits,
                                       int threads) {
  if (num_qubits <= 0 || num_qubits >= 64) return false;
  return batch_size < static_cast<std::size_t>(std::max(threads, 1)) &&
         (std::size_t{1} << num_qubits) >= quantum::kAmplitudeParallelDim;
}

BatchEvaluator::BatchEvaluator(const MaxCutQaoa& instance)
    : instance_(&instance),
      workspace_(quantum::Statevector::uniform(instance.num_qubits())) {}

double BatchEvaluator::expectation(std::span<const double> params) {
  return instance_->expectation_using(workspace_, params);
}

double BatchEvaluator::objective(std::span<const double> params) {
  return -expectation(params);
}

double BatchEvaluator::evaluate(std::span<const double> params,
                                const EvalSpec& spec) {
  if (!spec.sampled()) return expectation(params);
  Rng rng(spec.seed);
  return instance_->evaluate_using(workspace_, cdf_workspace_, params, spec,
                                   rng);
}

std::vector<double> BatchEvaluator::expectations(
    std::span<const std::vector<double>> batch) const {
  std::vector<double> values(batch.size());
  for_each_chunk(batch.size(), instance_->num_qubits(),
                 [&](std::size_t begin, std::size_t end) {
                   quantum::Statevector workspace =
                       quantum::Statevector::uniform(instance_->num_qubits());
                   for (std::size_t i = begin; i < end; ++i) {
                     values[i] =
                         instance_->expectation_using(workspace, batch[i]);
                   }
                 });
  return values;
}

std::vector<double> BatchEvaluator::objectives(
    std::span<const std::vector<double>> batch) const {
  std::vector<double> values = expectations(batch);
  for (double& v : values) v = -v;
  return values;
}

std::vector<double> BatchEvaluator::expectations(
    std::span<const BatchJob> jobs) {
  for (const BatchJob& job : jobs) {
    require(job.instance != nullptr,
            "BatchEvaluator::expectations: null instance in batch");
  }
  std::vector<double> values(jobs.size());
  for_each_chunk(
      jobs.size(), max_job_qubits(jobs),
      [&](std::size_t begin, std::size_t end) {
        // A state build only reallocates when the qubit count changes,
        // so a chunk of same-size instances reuses one buffer
        // throughout.
        quantum::Statevector workspace =
            quantum::Statevector::uniform(jobs[begin].instance->num_qubits());
        for (std::size_t i = begin; i < end; ++i) {
          values[i] =
              jobs[i].instance->expectation_using(workspace, jobs[i].params);
        }
      });
  return values;
}

std::vector<double> BatchEvaluator::evaluations(
    std::span<const BatchJob> jobs) {
  for (const BatchJob& job : jobs) {
    require(job.instance != nullptr,
            "BatchEvaluator::evaluations: null instance in batch");
    validate(job.eval);
  }
  std::vector<double> values(jobs.size());
  for_each_chunk(
      jobs.size(), max_job_qubits(jobs),
      [&](std::size_t begin, std::size_t end) {
        quantum::Statevector workspace =
            quantum::Statevector::uniform(jobs[begin].instance->num_qubits());
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
