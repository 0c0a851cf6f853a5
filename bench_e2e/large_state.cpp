// large_state: p = 2 objective evaluations through
// BatchEvaluator::expectation on one ER G(24, 0.5) instance (a 256 MiB
// state) at every pool thread, plus a single-thread leg that is both the
// plain baseline and the determinism check.  The optimizer and the ML
// layer do no work here: this workload is bound by state sweeps and is
// the judge of simulator pass counts against the STREAM-triad roofline.
// (A 26-qubit leg would need ~2 GiB per process; it is left out to keep
// the benchmark's memory small on shared hosts.)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench_e2e.hpp"
#include "common/parallel.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "graph/generators.hpp"
#include "latency.hpp"
#include "trace.hpp"

namespace e2e {

using namespace qaoaml;
using Clock = std::chrono::steady_clock;

void run_large_state(const Options& options, Report& report) {
  const int qubits = options.smoke ? 14 : 24;
  constexpr int kDepth = 2;
  Rng angles(mix(options.seed, 0xA261E5));
  const std::vector<double> first_params = core::random_angles(kDepth, angles);

  // The reference kernel sweeps as much memory as one evaluation does:
  // the state (16 B per amplitude) and the cost diagonal (8 B).
  HostSpeed speed(SpeedKernel::kMemory, std::size_t{24} << qubits);

  // Set-up is everything a caller pays before the first steady-state
  // evaluation: the instance's O(2^n) diagonal precompute, the evaluator
  // and its first (page-faulting) evaluation.
  std::optional<core::MaxCutQaoa> instance;
  std::optional<core::BatchEvaluator> evaluator;
  double first_value = 0.0;
  report.add("setup_s", median_setup(options, speed, [&] {
               evaluator.reset();
               instance.reset();
               Rng rng(mix(options.seed, 0x1A26E));
               graph::Graph g = graph::erdos_renyi_gnp(qubits, 0.5, rng);
               instance.emplace(std::move(g), kDepth);
               evaluator.emplace(*instance);
               first_value = evaluator->expectation(first_params);
             }),
             "s");

  // [traced]; traced_op interleaves them.  Wall seconds, and the same at
  // reference speed.
  std::vector<double> evals_s[2];
  std::vector<double> scaled_s[2];
  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  for (std::size_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
    const bool traced = traced_op(options, i);
    const std::vector<double> params = core::random_angles(kDepth, angles);
    ++report.attempted;
    double value = 0.0;
    double seconds = 0.0;
    {
      const TraceScope recording(traced);
      const trace::Span span("sim.eval", i);
      const auto start = Clock::now();
      value = evaluator->expectation(params);
      seconds = std::chrono::duration<double>(Clock::now() - start).count();
    }
    evals_s[traced ? 1 : 0].push_back(seconds);
    scaled_s[traced ? 1 : 0].push_back(seconds * speed.scale());
    if (!std::isfinite(value)) ++report.failed;
  }

  // Single-thread leg: amplitude sharding must not change a bit.
  std::vector<double> t1_s;
  {
    const ScopedThreadCount one(1);
    for (int i = 0; i < (options.smoke ? 1 : 2); ++i) {
      ++report.attempted;
      const auto start = Clock::now();
      const double value = evaluator->expectation(first_params);
      t1_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
      const bool same = same_bits(value, first_value);
      if (!same) ++report.failed;
      report.check(same, "large_state: 1-thread value differs from the " +
                             std::to_string(default_thread_count()) +
                             "-thread value");
    }
  }

  std::vector<double> latencies_ms;
  double seconds = 0.0;
  for (const double s : scaled_s[0]) {
    latencies_ms.push_back(1e3 * s);
    seconds += s;
  }
  const LatencySummary latency = summarize_latency(latencies_ms);
  std::printf("# q%d evaluations at %d threads (reference speed): %s\n", qubits,
              default_thread_count(), describe(latency, "ms").c_str());
  report.add("throughput_per_s",
             seconds > 0.0 ? static_cast<double>(scaled_s[0].size()) / seconds : 0.0, "1/s");
  report.add("latency_p50_ms", latency.median, "ms");
  report.add("host_speed", speed.median_speed(), "x");
  report.add("eval_q24_t1_s", median(t1_s), "s");

  if (!options.trace) return;
  auto rate = [](const std::vector<double>& s) {
    double total = 0.0;
    for (const double x : s) total += x;
    return total > 0.0 ? static_cast<double>(s.size()) / total : 0.0;
  };
  const double traced_rate = rate(scaled_s[1]);
  report.add("trace_overhead_pct",
             traced_rate > 0.0 ? 100.0 * (rate(scaled_s[0]) / traced_rate - 1.0) : 0.0,
             "%");

  // The roofline in wall time: evaluations and triads ran interleaved, so
  // both medians saw the same memory system.
  const double triad = speed.bytes_per_run() / speed.median_seconds() / 1e9;
  const double state_bytes = 16.0 * std::ldexp(1.0, qubits);
  const double eval_s = median(evals_s[0]);
  // One read+write pass over the state moves 2 x 16 B per amplitude; the
  // compulsory traffic is one such pass per layer plus the <C> read of
  // the amplitude (16 B) and the diagonal (8 B).
  const double pass_bytes = 2.0 * state_bytes;
  const double compulsory = pass_bytes * kDepth + 1.5 * state_bytes;
  report.add("mem.triad_gbs", triad, "GB/s");
  report.add("sim.q24.eff_passes", eval_s * triad * 1e9 / pass_bytes, "passes");
  report.add("sim.q24.roof_pct",
             triad > 0.0 ? 100.0 * compulsory / eval_s / (triad * 1e9) : 0.0, "%");

  // The probe needs a predictor bank; built here, after the timed window.
  const TempDir tmp(options, "large_state");
  const Bank bank = build_bank(options, tmp.path());
  report.add("ml.train_s", bank.train_s, "s");
  run_probe(options, bank.predictor, report);
}

}  // namespace e2e
