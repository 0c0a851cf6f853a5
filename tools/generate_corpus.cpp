// Command-line driver for the sharded corpus-generation pipeline.
//
// Generates the (graph -> optimal QAOA angles) training corpus, one
// shard per invocation (or all shards in-process), with checkpoint /
// resume: re-running after a kill continues from the last committed
// unit.  When every shard is complete, the shards merge into one
// ParameterDataset file whose bytes are identical for every shard and
// thread count.
//
//   # whole corpus, one process:
//   generate_corpus --graphs 64 --depth 4 --dir /tmp/corpus --out corpus.txt
//
//   # the same corpus split over two machines/processes:
//   generate_corpus --graphs 64 --depth 4 --dir /shared --shards 2 --shard 0
//   generate_corpus --graphs 64 --depth 4 --dir /shared --shards 2 --shard 1
//   generate_corpus --graphs 64 --depth 4 --dir /shared --shards 2 --merge-only
//
//   # a non-ER instance distribution (see core/graph_ensemble.hpp):
//   generate_corpus --graphs 64 --family small-world --neighbors 2
//                   --rewire-prob 0.25 --dir /tmp/sw
//
// Thread count comes from QAOAML_THREADS (default: hardware
// concurrency); see docs/CONFIGURATION.md for every knob.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/shard_cli.hpp"
#include "core/corpus_pipeline.hpp"

namespace {

using qaoaml::cli::to_double;
using qaoaml::cli::to_int;
using qaoaml::cli::to_u64;
using qaoaml::core::CorpusPipeline;
using qaoaml::core::CorpusShardConfig;
using qaoaml::core::DatasetConfig;
using qaoaml::core::ShardReport;
using qaoaml::core::ShardSpec;

struct CliOptions {
  DatasetConfig dataset;
  qaoaml::cli::ShardCli sharding{"generate_corpus"};
};

void print_usage() {
  std::printf(
      "usage: generate_corpus [options]\n"
      "\n"
      "corpus shape (defaults = the paper's full-scale setup):\n"
      "  --graphs N       ensemble size (default 330)\n"
      "  --nodes N        nodes per graph (default 8)\n"
      "  --min-edges N    resample graphs with fewer edges (default 1)\n"
      "  --depth D        corpus depths 1..D (default 6)\n"
      "  --restarts R     multistart count per (graph, depth) (default 20)\n"
      "  --optimizer S    L-BFGS-B | Nelder-Mead | SLSQP | COBYLA\n"
      "  --seed S         master seed (default 42)\n"
      "  --objective-mode M  exact (default) | sampled — sampled optimizes\n"
      "                   finite-shot estimates (the corpus a real device\n"
      "                   would produce) with exact-rescored record values\n"
      "  --shots N        shots per estimate (default 1024); implies\n"
      "                   --objective-mode sampled\n"
      "  --shot-averaging K  estimates averaged per objective call\n"
      "\n"
      "graph family (see docs/CONFIGURATION.md):\n"
      "  --family F       erdos-renyi (default) | regular |\n"
      "                   weighted-erdos-renyi | small-world | mixed\n"
      "  --edge-prob F    ER edge probability (ER families; default 0.5)\n"
      "  --degree D       degree of the regular family (default 3;\n"
      "                   nodes * degree must be even)\n"
      "  --weight S       weighted-ER weight law: uniform | gaussian\n"
      "  --weight-low F   uniform weight lower bound (default 0.1)\n"
      "  --weight-high F  uniform weight upper bound (default 1.0)\n"
      "  --weight-mean F  gaussian weight mean (default 1.0)\n"
      "  --weight-sd F    gaussian weight std dev (default 0.25)\n"
      "  --neighbors K    small-world ring degree, even (default 2)\n"
      "  --rewire-prob F  small-world rewiring probability (default 0.25)\n"
      "\n");
  qaoaml::cli::ShardCli::print_usage(
      "  --out PATH       merged dataset file, relative to --dir\n"
      "                   unless absolute (default corpus.txt)\n");
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  // One table for every value-taking flag, so the known-flag check and
  // the setter cannot drift apart.  Setters return false on a
  // malformed value.
  const std::vector<qaoaml::cli::ValueFlag> value_flags = {
      {"--graphs",
       [&](const char* v) { return to_int(v, options.dataset.num_graphs); }},
      {"--nodes",
       [&](const char* v) { return to_int(v, options.dataset.num_nodes); }},
      {"--family",
       [&](const char* v) {
         options.dataset.ensemble.family =
             qaoaml::core::family_from_string(v);  // throws on typo
         return true;
       }},
      {"--edge-prob",
       [&](const char* v) {
         return to_double(v, options.dataset.ensemble.edge_probability);
       }},
      {"--degree",
       [&](const char* v) {
         return to_int(v, options.dataset.ensemble.degree);
       }},
      {"--weight",
       [&](const char* v) {
         const std::string kind = v;
         if (kind == "uniform") {
           options.dataset.ensemble.weight =
               qaoaml::core::WeightKind::kUniform;
         } else if (kind == "gaussian") {
           options.dataset.ensemble.weight =
               qaoaml::core::WeightKind::kGaussian;
         } else {
           return false;
         }
         return true;
       }},
      {"--weight-low",
       [&](const char* v) {
         return to_double(v, options.dataset.ensemble.weight_low);
       }},
      {"--weight-high",
       [&](const char* v) {
         return to_double(v, options.dataset.ensemble.weight_high);
       }},
      {"--weight-mean",
       [&](const char* v) {
         return to_double(v, options.dataset.ensemble.weight_mean);
       }},
      {"--weight-sd",
       [&](const char* v) {
         return to_double(v, options.dataset.ensemble.weight_sd);
       }},
      {"--neighbors",
       [&](const char* v) {
         return to_int(v, options.dataset.ensemble.neighbors);
       }},
      {"--rewire-prob",
       [&](const char* v) {
         return to_double(v, options.dataset.ensemble.rewire_probability);
       }},
      {"--min-edges",
       [&](const char* v) { return to_int(v, options.dataset.min_edges); }},
      {"--depth",
       [&](const char* v) { return to_int(v, options.dataset.max_depth); }},
      {"--restarts",
       [&](const char* v) { return to_int(v, options.dataset.restarts); }},
      {"--optimizer",
       [&](const char* v) {
         options.dataset.optimizer =
             qaoaml::optim::optimizer_from_string(v);  // throws on typo
         return true;
       }},
      {"--seed",
       [&](const char* v) { return to_u64(v, options.dataset.seed); }},
      {"--objective-mode",
       [&](const char* v) {
         options.dataset.eval.mode =
             qaoaml::core::objective_mode_from_string(v);  // throws
         return true;
       }},
      {"--shots",
       [&](const char* v) {
         options.dataset.eval.mode = qaoaml::core::ObjectiveMode::kSampled;
         return to_int(v, options.dataset.eval.shots);
       }},
      {"--shot-averaging",
       [&](const char* v) {
         return to_int(v, options.dataset.eval.averaging);
       }},
  };
  return options.sharding.parse(argc, argv, value_flags, print_usage);
}

void print_report(const ShardReport& report, const ShardSpec& shard) {
  std::printf(
      "shard %d/%d: %zu units (%zu resumed, %zu generated) in %.2f s"
      "  (%.2f instances/sec)\n  data     %s\n  manifest %s\n",
      shard.index, shard.count, report.units_owned, report.units_resumed,
      report.units_generated, report.seconds, report.instances_per_second,
      report.data_path.c_str(), report.manifest_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  options.sharding.out = "corpus.txt";
  try {
    if (!parse_args(argc, argv, options)) {
      print_usage();
      return 2;
    }

    const qaoaml::cli::ShardCli& sharding = options.sharding;
    const bool merge = sharding.run_shards([&](int s, const auto& progress) {
      CorpusShardConfig shard_config;
      shard_config.dataset = options.dataset;
      shard_config.shard = ShardSpec{s, sharding.shards};
      shard_config.directory = sharding.directory;
      shard_config.progress = progress;
      const ShardReport report = CorpusPipeline::run_shard(shard_config);
      print_report(report, shard_config.shard);
      return report;
    });
    if (!merge) return 0;
    const std::string out = sharding.out_path();
    const auto merged = CorpusPipeline::merge_shards(
        options.dataset, sharding.shards, sharding.directory, out);
    std::printf("merged %zu instances (%zu optimal parameters) -> %s\n",
                merged.size(), merged.total_parameter_count(), out.c_str());
  } catch (const std::exception& e) {
    // qaoaml::Error and the std::filesystem errors from shard I/O alike.
    std::fprintf(stderr, "generate_corpus: %s\n", e.what());
    return 1;
  }
  return 0;
}
