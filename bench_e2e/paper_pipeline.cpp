// paper_pipeline: the paper's own workload, pass after pass.
//
// Set-up builds the predictor bank (corpus of 16 graphs on the paper's
// per-graph recipe, GPR training).  Each pass then takes one fresh graph
// through the production path: CorpusPipeline::run_shard and
// merge_shards, ParameterDataset::load, run_table1_shard (4 optimizers x
// p 2..5, 10 naive runs and 3 ML repeats per graph) and
// merge_table1_shards, then repeats both shard calls on the finished
// directory, which must take the locks, validate and generate nothing.
// At eight qubits per-call overhead, optimizer bookkeeping and the
// checkpoint files dominate; state sweeps are cheap.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench_e2e.hpp"
#include "core/experiment.hpp"
#include "latency.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace qaoaml;
using Clock = std::chrono::steady_clock;

struct PassTimes {
  double total = 0.0;
  double scale = 1.0;   ///< HostSpeed factor measured right after the pass
  double corpus = 0.0;  ///< run_shard
  double table1 = 0.0;  ///< run_table1_shard
  double merge = 0.0;   ///< merge_shards + load + merge_table1_shards
  double resume = 0.0;  ///< both shard calls again on the finished directory
};

template <typename Fn>
auto timed(const char* span_name, double& seconds, Fn&& fn) {
  const trace::Span span(span_name);
  const auto start = Clock::now();
  auto result = fn();
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace

void run_paper_pipeline(const Options& options, Report& report) {
  const TempDir tmp(options, "paper_pipeline");
  HostSpeed speed(SpeedKernel::kCompute);
  std::optional<Bank> bank;
  int setups = 0;
  report.add("setup_s", median_setup(options, speed, [&] {
               bank.reset();
               bank.emplace(build_bank(
                   options, tmp.file("bank" + std::to_string(setups++))));
             }),
             "s");

  // One graph per pass keeps the pass short: a window then holds about
  // fifty passes, each on a graph of its own, and their median moves
  // little with how hard the seed's graphs happen to be.
  constexpr int graphs_per_pass = 1;
  // fc_reduction_pct and the approximation-ratio check read the Table-I
  // rows of the first kScoredInputs graphs only, whatever the window
  // holds, so that they are fixed for a seed.
  const std::uint64_t kScoredInputs = options.smoke ? 2 : 8;
  core::ExperimentConfig experiment;
  experiment.naive_runs = options.smoke ? 2 : 10;
  experiment.ml_repeats = options.smoke ? 1 : 3;
  const std::size_t cells =
      experiment.optimizers.size() * experiment.target_depths.size();

  std::vector<PassTimes> passes[2];  // [traced]
  double corpus_units = 0.0;
  double table1_units = 0.0;
  double corpus_bytes = 0.0;
  double table1_bytes = 0.0;
  std::vector<core::TableRow> scored_rows;
  std::uint64_t scored_inputs = 0;
  std::uint64_t digest = 0;
  int pass_index = 0;

  // A traced run interleaves untraced and traced passes (traced_op), so
  // that slow drift in host speed does not land in trace_overhead_pct, and
  // runs passes 2k and 2k+1 on the same graphs, so that their work does
  // not differ either.
  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  do {
    const int pass = pass_index++;
    const bool traced = traced_op(options, static_cast<std::size_t>(pass));
    const std::uint64_t inputs = static_cast<std::uint64_t>(options.trace ? pass / 2 : pass);
    const TraceScope recording(traced);
    const std::string dir = tmp.file("pass" + std::to_string(pass));
    const trace::Span pass_span("pipeline.pass", static_cast<std::uint64_t>(pass));
    core::CorpusShardConfig shard;
    shard.dataset = corpus_config(options, graphs_per_pass, mix(options.seed, 0x9A55 + inputs));
    shard.directory = dir;
    core::ExperimentConfig config = experiment;
    config.seed = mix(options.seed, 0x7AB1 + inputs);
    const std::size_t units = static_cast<std::size_t>(graphs_per_pass) * (1 + cells);
    report.attempted += static_cast<std::int64_t>(units);

    PassTimes t;
    try {
      const auto start = Clock::now();
      const core::ShardReport corpus = timed("core.run_shard", t.corpus, [&] {
        return core::CorpusPipeline::run_shard(shard);
      });
      const std::string corpus_path = dir + "/corpus.txt";
      timed("ckpt.merge_shards", t.merge, [&] {
        return core::CorpusPipeline::merge_shards(shard.dataset, 1, dir,
                                                  corpus_path);
      });
      const core::ParameterDataset dataset = timed("ckpt.load", t.merge, [&] {
        return core::ParameterDataset::load(corpus_path);
      });
      std::vector<std::size_t> test(dataset.size());
      for (std::size_t i = 0; i < test.size(); ++i) test[i] = i;
      const core::Table1ShardReport table1 =
          timed("core.run_table1_shard", t.table1, [&] {
            return core::run_table1_shard(dataset, test, bank->predictor,
                                          config, {}, dir);
          });
      const std::vector<core::TableRow> pass_rows =
          timed("ckpt.merge_table1", t.merge, [&] {
            return core::merge_table1_shards(dataset, test, config, 1, dir);
          });
      const auto resumed = timed("ckpt.resume_scan", t.resume, [&] {
        return std::make_pair(
            core::CorpusPipeline::run_shard(shard),
            core::run_table1_shard(dataset, test, bank->predictor, config,
                                   {}, dir));
      });
      t.total = std::chrono::duration<double>(Clock::now() - start).count();
      t.scale = speed.scale();

      const bool complete =
          corpus.units_generated == static_cast<std::size_t>(graphs_per_pass) &&
          table1.units_generated == cells * test.size() &&
          resumed.first.units_generated == 0 &&
          resumed.first.units_resumed == corpus.units_owned &&
          resumed.second.units_generated == 0 &&
          resumed.second.units_resumed == table1.units_owned;
      report.check(complete, "paper_pipeline: pass " + std::to_string(pass) +
                                 " did not generate every unit exactly once");
      if (!complete) report.failed += static_cast<std::int64_t>(units);

      corpus_units += static_cast<double>(corpus.units_generated);
      table1_units += static_cast<double>(table1.units_generated);
      corpus_bytes += file_bytes(corpus.data_path) + file_bytes(corpus.manifest_path);
      table1_bytes += file_bytes(table1.data_path);
      if (inputs == scored_inputs && inputs < kScoredInputs) {
        scored_rows.insert(scored_rows.end(), pass_rows.begin(), pass_rows.end());
        ++scored_inputs;
      }
      if (pass == 0) {
        digest = fnv1a(read_file(corpus_path));
        for (const core::TableRow& row : pass_rows) {
          char line[256];
          std::snprintf(line, sizeof(line), "%.17g %.17g %.17g %.17g\n",
                        row.naive_ar_mean, row.naive_fc_mean, row.ml_ar_mean,
                        row.ml_fc_mean);
          digest = fnv1a(line, digest);
        }
      }
      passes[traced ? 1 : 0].push_back(t);
    } catch (const std::exception& e) {
      report.failed += static_cast<std::int64_t>(units);
      report.check(false, "paper_pipeline: pass " + std::to_string(pass) +
                              " threw: " + e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  } while (Clock::now() < deadline ||
           static_cast<std::uint64_t>(options.trace ? pass_index / 2 : pass_index) <
               kScoredInputs);

  // End-to-end numbers come from the untraced passes only, at reference
  // speed.
  double pass_seconds = 0.0;
  double corpus_seconds = 0.0;
  double table1_seconds = 0.0;
  std::vector<double> latencies_ms;
  for (const PassTimes& t : passes[0]) {
    pass_seconds += t.total * t.scale;
    corpus_seconds += t.corpus * t.scale;
    table1_seconds += t.table1 * t.scale;
    latencies_ms.push_back(1e3 * t.total * t.scale);
  }
  const LatencySummary latency = summarize_latency(latencies_ms);
  const double graphs_done =
      static_cast<double>(passes[0].size() * static_cast<std::size_t>(graphs_per_pass));
  std::printf("# pipeline passes (%d graph each, reference speed): %s\n", graphs_per_pass,
              describe(latency, "ms").c_str());
  report.add("throughput_per_s", pass_seconds > 0.0 ? graphs_done / pass_seconds : 0.0,
             "1/s");
  report.add("latency_p50_ms", latency.median, "ms");
  report.add("host_speed", speed.median_speed(), "x");
  report.add("corpus_units_per_s",
             corpus_seconds > 0.0 ? graphs_done / corpus_seconds : 0.0, "1/s");
  report.add("table1_units_per_s",
             table1_seconds > 0.0
                 ? graphs_done * static_cast<double>(cells) / table1_seconds
                 : 0.0,
             "1/s");

  double fc_reduction = 0.0;
  double naive_ar = 0.0;
  double ml_ar = 0.0;
  for (const core::TableRow& row : scored_rows) {
    fc_reduction += row.fc_reduction_percent;
    naive_ar += row.naive_ar_mean;
    ml_ar += row.ml_ar_mean;
  }
  const double row_count =
      static_cast<double>(std::max<std::size_t>(scored_rows.size(), 1));
  report.add("fc_reduction_pct", fc_reduction / row_count, "%");
  report.check(fc_reduction > 0.0, "paper_pipeline: ML arm saved no function calls");
  report.check(ml_ar >= naive_ar,
               "paper_pipeline: mean ML approximation ratio below the naive arm's");
  std::printf("output_digest %016" PRIx64 "\n", digest);

  if (!options.trace) return;
  double all_seconds = 0.0;
  double merge_seconds = 0.0;
  double resume_seconds = 0.0;
  for (const auto& half : passes) {
    for (const PassTimes& t : half) {
      all_seconds += t.total;
      merge_seconds += t.merge;
      resume_seconds += t.resume;
    }
  }
  auto rate = [&](const std::vector<PassTimes>& half) {
    double seconds = 0.0;
    for (const PassTimes& t : half) seconds += t.total * t.scale;
    return seconds > 0.0 ? static_cast<double>(half.size()) / seconds : 0.0;
  };
  const double traced_rate = rate(passes[1]);
  report.add("trace_overhead_pct",
             traced_rate > 0.0 ? 100.0 * (rate(passes[0]) / traced_rate - 1.0) : 0.0,
             "%");
  report.add("ckpt.bytes_per_unit.corpus",
             corpus_units > 0.0 ? corpus_bytes / corpus_units : 0.0, "bytes");
  report.add("ckpt.bytes_per_unit.table1",
             table1_units > 0.0 ? table1_bytes / table1_units : 0.0, "bytes");
  report.add("ckpt.resume_scan_pct",
             all_seconds > 0.0 ? 100.0 * resume_seconds / all_seconds : 0.0, "%");
  report.add("ckpt.merge_pct",
             all_seconds > 0.0 ? 100.0 * merge_seconds / all_seconds : 0.0, "%");
  report.add("ml.train_s", bank->train_s, "s");
  run_probe(options, bank->predictor, report);
}

}  // namespace e2e
