// CI benchmark-regression gate.
//
// Runs a pinned subset of the performance-critical paths (fused QAOA
// objective, corpus-pipeline throughput, batched multistart) `--repeats`
// times each, reports the per-metric MEDIAN (robust to one noisy run on
// a shared CI box), writes the result as a flat JSON file, and — when
// given a baseline JSON — fails on any median regression beyond
// `--max-regression` (default 0.25, i.e. 25%).
//
// Every metric is in seconds-per-fixed-workload, so "bigger than
// baseline" always means "slower".  Timings are hardware-dependent: a
// baseline is only meaningful on the machine class it was measured on
// (for CI: the runner class; refresh instructions live next to the
// bench-regression job in .github/workflows/ci.yml).
//
//   bench_ci --repeats 3 --out BENCH_ci.json
//   bench_ci --repeats 3 --out BENCH_ci.json --baseline bench/baseline_ci.json
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/batch_evaluator.hpp"
#include "core/corpus_pipeline.hpp"
#include "core/parameter_dataset.hpp"
#include "core/parameter_predictor.hpp"
#include "core/qaoa_solver.hpp"
#include "core/serving.hpp"
#include "core/serving_client.hpp"
#include "graph/generators.hpp"
#include "quantum/dispatch.hpp"

using namespace qaoaml;

namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Seconds for a fixed batch of fused-path objective evaluations
/// (p = 2, 14 qubits — the fused kernels' headline configuration).
double time_fused_objective() {
  Rng rng(7);
  const graph::Graph g = graph::erdos_renyi_gnp(14, 0.5, rng);
  const core::MaxCutQaoa instance(g, 2);
  core::BatchEvaluator evaluator(instance);
  std::vector<double> params(instance.num_parameters(), 0.3);
  Timer timer;
  double sink = 0.0;
  for (int i = 0; i < 200; ++i) {
    params[0] = 0.01 * static_cast<double>(i % 100);
    sink += evaluator.expectation(params);
  }
  const double seconds = timer.seconds();
  // Keep the accumulated value observable so the loop cannot be
  // optimized away.
  if (sink == 42.123456) std::printf("#\n");
  return seconds;
}

/// Seconds for a fixed batch of shot-sampled objective evaluations
/// through the workspace-reusing path (state prep + serial CDF + 2048
/// CDF-inversion draws per call — the inner loop of every shot-noise
/// experiment and of sampled serving requests).
double time_sampled_expectation() {
  Rng rng(13);
  const graph::Graph g = graph::erdos_renyi_gnp(14, 0.5, rng);
  const core::MaxCutQaoa instance(g, 2);
  core::BatchEvaluator evaluator(instance);
  const core::EvalSpec spec = core::EvalSpec::sampled_with(2048, 77);
  std::vector<double> params(instance.num_parameters(), 0.3);
  Timer timer;
  double sink = 0.0;
  for (int i = 0; i < 200; ++i) {
    params[0] = 0.01 * static_cast<double>(i % 100);
    sink += evaluator.evaluate(params, spec);
  }
  const double seconds = timer.seconds();
  if (sink == 42.123456) std::printf("#\n");
  return seconds;
}

/// Seconds to generate a fixed small corpus through the pipeline
/// scheduler (the offline data-generation hot path).
double time_corpus_pipeline() {
  core::DatasetConfig config;
  config.num_graphs = 12;
  config.num_nodes = 8;
  config.max_depth = 2;
  config.restarts = 4;
  config.seed = 42;
  Timer timer;
  const auto records = core::CorpusPipeline::generate_records(config);
  const double seconds = timer.seconds();
  if (records.size() != 12) std::printf("# unexpected corpus size\n");
  return seconds;
}

/// Seconds for one batched multistart (all restarts dispatched as a
/// single batch over the pool).
double time_batched_multistart() {
  Rng rng(11);
  const graph::Graph g = graph::erdos_renyi_gnp(10, 0.5, rng);
  const core::MaxCutQaoa instance(g, 2);
  Rng starts(99);
  Timer timer;
  const core::MultistartRuns runs = core::solve_multistart(
      instance, optim::OptimizerKind::kLbfgsb, 24, starts);
  const double seconds = timer.seconds();
  if (runs.runs.size() != 24) std::printf("# unexpected run count\n");
  return seconds;
}

/// Seconds for a fixed number of predict round trips through an
/// in-process serving daemon (Unix socket + wire framing + scheduler +
/// bank lookup — the serving layer's pure overhead path).  The tiny
/// bank trains once and is shared across repeats; setup stays outside
/// the timed region.
double time_serving_predict() {
  static const std::string bank_path = [] {
    const std::string path = "/tmp/qaoaml_bench_ci_" +
                             std::to_string(::getpid()) + ".qpb";
    core::DatasetConfig config;
    config.num_graphs = 6;
    config.num_nodes = 6;
    config.max_depth = 2;
    config.restarts = 2;
    config.seed = 5;
    const core::ParameterDataset corpus =
        core::ParameterDataset::generate(config);
    core::ParameterPredictor bank;
    std::vector<std::size_t> all(corpus.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    bank.train(corpus, all);
    bank.save(path);
    return path;
  }();

  core::serving::ServerConfig config;
  config.socket_path =
      "/tmp/qaoaml_bench_ci_" + std::to_string(::getpid()) + ".sock";
  config.banks = {{"erdos-renyi", bank_path}};
  config.workers = 1;
  core::serving::Server server(config);
  core::serving::Client client(config.socket_path);

  int failures = 0;
  Timer timer;
  for (int i = 0; i < 400; ++i) {
    const core::serving::Response response = client.predict(
        "erdos-renyi", 0.01 * (i % 90), 0.01 * (i % 60), 2);
    if (!response.ok) ++failures;
  }
  const double seconds = timer.seconds();
  if (failures != 0) std::printf("# serving errors: %d\n", failures);
  return seconds;
}

/// Seconds for a fixed number of p=2 objective evaluations at `qubits`
/// forced onto `tier` — one cell of the SIMD dispatch speedup table
/// ({scalar, avx2, avx512} x {8, 16, 24} qubits).  The iteration counts
/// scale inversely with the state size so every cell times a comparable
/// amount of work.  Returns 0 when this CPU lacks the tier; the gate
/// below reports but never gates a zero (and a baseline captured on a
/// wider machine gates nothing here either, because the metric is then
/// "not in baseline" from the narrow machine's perspective — see main).
double time_simd_objective(quantum::SimdTier tier, int qubits, int iters) {
  if (!quantum::simd_tier_supported(tier)) return 0.0;
  // The instance (and its O(2^n) diagonal precompute) is shared across
  // tiers and repeats; only the amplitude sweeps are timed.
  static std::map<int, std::unique_ptr<core::MaxCutQaoa>> instances;
  std::unique_ptr<core::MaxCutQaoa>& slot = instances[qubits];
  if (slot == nullptr) {
    Rng rng(0x51D0 + static_cast<std::uint64_t>(qubits));
    slot = std::make_unique<core::MaxCutQaoa>(
        graph::erdos_renyi_gnp(qubits, 0.5, rng), 2);
  }
  core::BatchEvaluator evaluator(*slot);
  std::vector<double> params(slot->num_parameters(), 0.3);
  const quantum::ScopedSimdTier guard(tier);
  Timer timer;
  double sink = 0.0;
  for (int i = 0; i < iters; ++i) {
    params[0] = 0.01 * static_cast<double>(i % 100);
    sink += evaluator.expectation(params);
  }
  const double seconds = timer.seconds();
  if (sink == 42.123456) std::printf("#\n");
  return seconds;
}

/// Minimal flat-JSON number extraction ("key": value), tolerant of
/// everything else in the file — enough for the baseline format this
/// tool itself writes.
bool json_number(const std::string& text, const std::string& key,
                 double& out) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return false;
  try {
    out = std::stod(text.substr(colon + 1));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 3;
  double max_regression = 0.25;
  std::string out_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_ci: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed number must not silently become a 0% tolerance or a
    // truncated repeat count.  cli::to_double already refuses inf, nan
    // and overflow, so a parsed value is finite.
    auto reject = [&](const char* text, const char* expected) {
      std::fprintf(stderr, "bench_ci: %s: expected %s, got '%s'\n",
                   arg.c_str(), expected, text);
      std::exit(2);
    };
    if (arg == "--repeats") {
      const char* text = value();
      if (!cli::to_int(text, repeats) || repeats < 1) {
        reject(text, "a positive integer");
      }
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--baseline") {
      baseline_path = value();
    } else if (arg == "--max-regression") {
      const char* text = value();
      if (!cli::to_double(text, max_regression) || max_regression <= 0.0) {
        reject(text, "a positive finite number");
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_ci [--repeats N] [--out FILE] "
                   "[--baseline FILE] [--max-regression F]\n");
      return 2;
    }
  }

  struct Metric {
    const char* name;
    double (*run)();
  };
  using quantum::SimdTier;
  const Metric metrics[] = {
      {"fused_objective_s", &time_fused_objective},
      {"sampled_expectation_s", &time_sampled_expectation},
      {"corpus_pipeline_s", &time_corpus_pipeline},
      {"multistart_batched_s", &time_batched_multistart},
      {"serving_predict_s", &time_serving_predict},
      // The SIMD dispatch speedup table: every tier on every state
      // size, so a committed baseline pins both absolute perf and the
      // tier-over-scalar ratios (README quotes them from this table).
      {"simd_scalar_q8_s",
       [] { return time_simd_objective(SimdTier::kScalar, 8, 4000); }},
      {"simd_avx2_q8_s",
       [] { return time_simd_objective(SimdTier::kAvx2, 8, 4000); }},
      {"simd_avx512_q8_s",
       [] { return time_simd_objective(SimdTier::kAvx512, 8, 4000); }},
      {"simd_scalar_q16_s",
       [] { return time_simd_objective(SimdTier::kScalar, 16, 60); }},
      {"simd_avx2_q16_s",
       [] { return time_simd_objective(SimdTier::kAvx2, 16, 60); }},
      {"simd_avx512_q16_s",
       [] { return time_simd_objective(SimdTier::kAvx512, 16, 60); }},
      {"simd_scalar_q24_s",
       [] { return time_simd_objective(SimdTier::kScalar, 24, 2); }},
      {"simd_avx2_q24_s",
       [] { return time_simd_objective(SimdTier::kAvx2, 24, 2); }},
      {"simd_avx512_q24_s",
       [] { return time_simd_objective(SimdTier::kAvx512, 24, 2); }},
  };

  std::map<std::string, double> medians;
  std::printf("bench_ci: %d repeats, %d threads\n", repeats,
              default_thread_count());
  for (const Metric& metric : metrics) {
    std::vector<double> samples;
    for (int r = 0; r < repeats; ++r) samples.push_back(metric.run());
    medians[metric.name] = median(samples);
    std::printf("  %-22s median %.4f s  (", metric.name, medians[metric.name]);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      std::printf("%s%.4f", s ? " " : "", samples[s]);
    }
    std::printf(")\n");
  }

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    os.precision(6);
    os << "{\n  \"schema\": \"qaoaml-bench-ci-v1\",\n  \"repeats\": "
       << repeats << ",\n  \"threads\": " << default_thread_count();
    for (const auto& [name, value] : medians) {
      os << ",\n  \"" << name << "\": " << std::fixed << value;
    }
    os << "\n}\n";
    if (!os.good()) {
      std::fprintf(stderr, "bench_ci: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (baseline_path.empty()) return 0;

  std::ifstream is(baseline_path);
  if (!is.good()) {
    std::fprintf(stderr, "bench_ci: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string baseline = buf.str();

  bool failed = false;
  // Timings only compare within one thread configuration: a baseline
  // captured at threads=1 gated against a 4-thread run would let a real
  // 3x regression in the parallel paths sail under the tolerance.
  double base_threads = 0.0;
  if (json_number(baseline, "threads", base_threads) &&
      static_cast<int>(base_threads) != default_thread_count()) {
    std::fprintf(stderr,
                 "bench_ci: baseline was measured with %d threads but this "
                 "run uses %d (set QAOAML_THREADS=%d or refresh %s)\n",
                 static_cast<int>(base_threads), default_thread_count(),
                 static_cast<int>(base_threads), baseline_path.c_str());
    return 1;
  }
  for (const auto& [name, value] : medians) {
    if (value <= 0.0) {
      // A SIMD tier this CPU lacks: reported, never gated.
      std::printf("  %-22s UNSUPPORTED ON THIS CPU (not gated)\n",
                  name.c_str());
      continue;
    }
    double base = 0.0;
    if (!json_number(baseline, name, base) || base <= 0.0) {
      // A metric added after the baseline was captured is reported, not
      // gated — refresh the baseline to start gating it.
      std::printf("  %-22s NOT IN BASELINE (refresh %s to gate it)\n",
                  name.c_str(), baseline_path.c_str());
      continue;
    }
    const double ratio = value / base;
    const bool regressed = ratio > 1.0 + max_regression;
    std::printf("  %-22s %.4f s vs baseline %.4f s  (%+.1f%%)%s\n",
                name.c_str(), value, base, 100.0 * (ratio - 1.0),
                regressed ? "  REGRESSION" : "");
    if (regressed) failed = true;
  }
  if (failed) {
    std::fprintf(stderr,
                 "bench_ci: median regression beyond %.0f%% against %s\n",
                 100.0 * max_regression, baseline_path.c_str());
    return 1;
  }
  return 0;
}
