// Pinned FNV-1a digests of the paper's sweeps at a small scale: the
// Table-I rows and the merged corpus bytes, each under the exact and a
// shot-sampled objective, plus one two-level solve with three level-1
// restarts.  Every double is printed with 17 significant digits and
// every function-call count is part of the digest, so a change of
// scheduling that moves any bit of any run — or any draw of a unit's
// rng stream — fails here.  The digests hold for every thread count.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/experiment.hpp"
#include "core/parameter_predictor.hpp"

namespace qaoaml::core {
namespace {

std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g ", v);
  return buf;
}

std::string unique_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "sweep_digests" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

DatasetConfig corpus_config(const EvalSpec& eval) {
  DatasetConfig config;
  config.num_graphs = 5;
  config.num_nodes = 6;
  config.max_depth = 3;
  config.restarts = 3;
  config.seed = 2024;
  config.eval = eval;
  return config;
}

/// The corpus of a two-shard run, merged: its bytes' digest.
std::string corpus_digest(const DatasetConfig& config,
                          const std::string& dir) {
  for (int s = 0; s < 2; ++s) {
    CorpusShardConfig shard;
    shard.dataset = config;
    shard.shard = ShardSpec{s, 2};
    shard.directory = dir;
    CorpusPipeline::run_shard(shard);
  }
  const std::string path = dir + "/merged.txt";
  CorpusPipeline::merge_shards(config, 2, dir, path);
  return hex(fnv1a(file_bytes(path)));
}

/// Exact corpus + a predictor trained on part of it.
struct Harness {
  ParameterDataset dataset;
  std::vector<std::size_t> test;
  ParameterPredictor predictor;
};

const Harness& harness() {
  static const Harness h = [] {
    Harness out;
    DatasetConfig config = corpus_config(EvalSpec::exact());
    config.num_graphs = 8;
    config.max_depth = 4;
    out.dataset = ParameterDataset::generate(config);
    Rng rng(11);
    auto [train, test] = out.dataset.split_indices(0.5, rng);
    out.test = std::move(test);
    out.predictor.train(out.dataset, train);
    return out;
  }();
  return h;
}

std::string table1_digest(const EvalSpec& eval) {
  const Harness& h = harness();
  ExperimentConfig config;
  config.optimizers = {optim::OptimizerKind::kLbfgsb,
                       optim::OptimizerKind::kNelderMead,
                       optim::OptimizerKind::kCobyla};
  // Noisy optimizers run long; one depth keeps the sampled sweep short.
  config.target_depths = eval.sampled() ? std::vector<int>{2}
                                        : std::vector<int>{2, 4};
  config.naive_runs = 3;
  config.ml_repeats = 2;
  config.seed = 31;
  config.eval = eval;
  std::string text;
  for (const TableRow& row :
       run_table1(h.dataset, h.test, h.predictor, config)) {
    text += g17(row.naive_ar_mean) + g17(row.naive_ar_sd) +
            g17(row.naive_fc_mean) + g17(row.naive_fc_sd) +
            g17(row.ml_ar_mean) + g17(row.ml_ar_sd) + g17(row.ml_fc_mean) +
            g17(row.ml_fc_sd) + "\n";
  }
  return hex(fnv1a(text));
}

/// Every field of a run, and the caller's next draw (which pins how
/// many draws the solve consumed).
std::string two_level_digest(const EvalSpec& eval) {
  const Harness& h = harness();
  TwoLevelConfig config;
  config.level1_restarts = 3;
  config.eval = eval;
  Rng rng(505);
  const AcceleratedRun run =
      solve_two_level(h.dataset.records()[h.test.front()].problem, 3,
                      h.predictor, config, rng);
  std::string text;
  for (const QaoaRun* stage : {&run.level1, &run.final}) {
    for (const double v : stage->params) text += g17(v);
    text += g17(stage->expectation) + g17(stage->approximation_ratio) +
            std::to_string(stage->function_calls) + " " +
            std::to_string(stage->iterations) + "\n";
  }
  for (const double v : run.predicted_init) text += g17(v);
  text += std::to_string(run.total_function_calls) + " " +
          std::to_string(rng()) + "\n";
  return hex(fnv1a(text));
}

const EvalSpec kSampled = EvalSpec::sampled_with(64, 9);

TEST(SweepDigests, ExactCorpusBytes) {
  for (const int threads : {1, 4}) {
    ScopedThreadCount scoped(threads);
    EXPECT_EQ(corpus_digest(corpus_config(EvalSpec::exact()),
                            unique_dir("exact" + std::to_string(threads))),
              "df9c68d6c696407d")
        << "threads=" << threads;
  }
}

TEST(SweepDigests, SampledCorpusBytes) {
  for (const int threads : {1, 4}) {
    ScopedThreadCount scoped(threads);
    EXPECT_EQ(corpus_digest(corpus_config(kSampled),
                            unique_dir("sampled" + std::to_string(threads))),
              "a689723c15980f1b")
        << "threads=" << threads;
  }
}

TEST(SweepDigests, ExactTable1Rows) {
  for (const int threads : {1, 4}) {
    ScopedThreadCount scoped(threads);
    EXPECT_EQ(table1_digest(EvalSpec::exact()), "46a087583f5f75ed")
        << "threads=" << threads;
  }
}

TEST(SweepDigests, SampledTable1Rows) {
  for (const int threads : {1, 4}) {
    ScopedThreadCount scoped(threads);
    EXPECT_EQ(table1_digest(kSampled), "015f221ce0032668") << "threads=" << threads;
  }
}

TEST(SweepDigests, TwoLevelWithThreeLevel1Restarts) {
  for (const int threads : {1, 4}) {
    ScopedThreadCount scoped(threads);
    EXPECT_EQ(two_level_digest(EvalSpec::exact()), "c62b54909f1afd89")
        << "threads=" << threads;
    EXPECT_EQ(two_level_digest(kSampled), "e0290cc21906f5c3") << "threads=" << threads;
  }
}

}  // namespace
}  // namespace qaoaml::core
