// Command-line driver for the sharded Table-I experiment
// (core/experiment.hpp): naive random initialization vs the two-level
// ML flow, swept over optimizers and target depths.
//
// Every invocation rebuilds the corpus -> split -> predictor chain
// deterministically from the same seeds (or loads a merged corpus
// file), so independent shard processes train bit-identical predictors
// — the precondition run_table1_shard documents.  Shards follow the
// corpus pipeline's operational model: one shard per invocation (or
// all in-process), kill/resume from the last committed unit, and a
// merge whose rows are bit-identical to the unsharded sweep for every
// shard and thread count.
//
//   # the whole sweep, one process:
//   run_table1 --graphs 16 --nodes 6 --depth 2 --depths 2 --dir /tmp/t1
//       --out table1.txt
//
//   # the same sweep split over two processes on shared storage:
//   run_table1 --graphs 16 --dir /shared --shards 2 --shard 0 --no-merge
//   run_table1 --graphs 16 --dir /shared --shards 2 --shard 1 --no-merge
//   run_table1 --graphs 16 --dir /shared --shards 2 --merge-only --out t1.txt
//
// Thread count comes from QAOAML_THREADS; tools/launch drives the
// multi-process form of this automatically.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/shard_cli.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/parameter_predictor.hpp"

namespace {

using qaoaml::cli::split_list;
using qaoaml::cli::to_double;
using qaoaml::cli::to_int;
using qaoaml::cli::to_u64;
using qaoaml::core::ExperimentConfig;
using qaoaml::core::ShardSpec;
using qaoaml::core::TableRow;

struct CliOptions {
  qaoaml::core::DatasetConfig dataset;  // corpus the predictor trains on
  std::string corpus;       // load this merged corpus instead of generating
  double split_frac = 0.2;  // the paper's 20:80 train/test split
  std::uint64_t split_seed = 5;
  ExperimentConfig sweep;
  qaoaml::cli::ShardCli sharding{"run_table1"};
};

void print_usage() {
  std::printf(
      "usage: run_table1 [options]\n"
      "\n"
      "corpus (regenerated deterministically per process, or loaded):\n"
      "  --corpus FILE    load a merged corpus written by generate_corpus\n"
      "                   (relative to --dir unless absolute) instead of\n"
      "                   generating one in-process\n"
      "  --graphs N       corpus ensemble size (default 24)\n"
      "  --nodes N        nodes per graph (default 8)\n"
      "  --min-edges N    resample graphs with fewer edges (default 1)\n"
      "  --depth D        corpus depths 1..D (default 4)\n"
      "  --restarts R     multistart count per (graph, depth) (default 10)\n"
      "  --corpus-seed S  corpus master seed (default 11)\n"
      "  --family F       erdos-renyi (default) | regular |\n"
      "                   weighted-erdos-renyi | small-world | mixed\n"
      "  --edge-prob F    ER edge probability (default 0.5)\n"
      "  --degree D       regular-family degree (default 3)\n"
      "  --neighbors K    small-world ring degree, even (default 2)\n"
      "  --rewire-prob F  small-world rewiring probability (default 0.25)\n"
      "\n"
      "split / predictor (GPR bank, trained identically in every shard):\n"
      "  --split-frac F   train fraction of the corpus (default 0.2)\n"
      "  --split-seed S   split RNG seed (default 5)\n"
      "\n"
      "sweep:\n"
      "  --optimizers L   comma-separated (default all four):\n"
      "                   L-BFGS-B | Nelder-Mead | SLSQP | COBYLA\n"
      "  --depths LIST    comma-separated target depths (default 2,3,4,5)\n"
      "  --naive-runs N   random initializations per graph (default 20)\n"
      "  --ml-repeats N   two-level repeats per graph (default 3)\n"
      "  --seed S         sweep master seed (default 7)\n"
      "\n"
      "objective evaluation (both sweep arms; the corpus stays exact):\n"
      "  --objective-mode M  exact (default) | sampled — sampled optimizes\n"
      "                   finite-shot estimates (noisy ftol/xtol preset)\n"
      "                   and reports exact-rescored ARs\n"
      "  --shots N        Born-rule shots per estimate (default 1024);\n"
      "                   implies --objective-mode sampled\n"
      "  --shot-averaging K  estimates averaged per objective call\n"
      "                   (default 1)\n"
      "\n");
  qaoaml::cli::ShardCli::print_usage(
      "  --out PATH       write the machine-readable report here (relative\n"
      "                   to --dir unless absolute); bytes are identical\n"
      "                   for every shard/thread count\n");
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  const std::vector<qaoaml::cli::ValueFlag> value_flags = {
      {"--corpus",
       [&](const char* v) {
         options.corpus = v;
         return true;
       }},
      {"--graphs",
       [&](const char* v) { return to_int(v, options.dataset.num_graphs); }},
      {"--nodes",
       [&](const char* v) { return to_int(v, options.dataset.num_nodes); }},
      {"--min-edges",
       [&](const char* v) { return to_int(v, options.dataset.min_edges); }},
      {"--depth",
       [&](const char* v) { return to_int(v, options.dataset.max_depth); }},
      {"--restarts",
       [&](const char* v) { return to_int(v, options.dataset.restarts); }},
      {"--corpus-seed",
       [&](const char* v) { return to_u64(v, options.dataset.seed); }},
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
      {"--neighbors",
       [&](const char* v) {
         return to_int(v, options.dataset.ensemble.neighbors);
       }},
      {"--rewire-prob",
       [&](const char* v) {
         return to_double(v, options.dataset.ensemble.rewire_probability);
       }},
      {"--split-frac",
       [&](const char* v) { return to_double(v, options.split_frac); }},
      {"--split-seed",
       [&](const char* v) { return to_u64(v, options.split_seed); }},
      {"--optimizers",
       [&](const char* v) {
         options.sweep.optimizers.clear();
         for (const std::string& name : split_list(v)) {
           options.sweep.optimizers.push_back(
               qaoaml::optim::optimizer_from_string(name));  // throws
         }
         return !options.sweep.optimizers.empty();
       }},
      {"--depths",
       [&](const char* v) {
         options.sweep.target_depths.clear();
         for (const std::string& item : split_list(v)) {
           int depth = 0;
           if (!to_int(item.c_str(), depth)) return false;
           options.sweep.target_depths.push_back(depth);
         }
         return !options.sweep.target_depths.empty();
       }},
      {"--naive-runs",
       [&](const char* v) { return to_int(v, options.sweep.naive_runs); }},
      {"--ml-repeats",
       [&](const char* v) { return to_int(v, options.sweep.ml_repeats); }},
      {"--seed",
       [&](const char* v) { return to_u64(v, options.sweep.seed); }},
      {"--objective-mode",
       [&](const char* v) {
         options.sweep.eval.mode =
             qaoaml::core::objective_mode_from_string(v);  // throws
         return true;
       }},
      {"--shots",
       [&](const char* v) {
         options.sweep.eval.mode = qaoaml::core::ObjectiveMode::kSampled;
         return to_int(v, options.sweep.eval.shots);
       }},
      {"--shot-averaging",
       [&](const char* v) {
         return to_int(v, options.sweep.eval.averaging);
       }},
  };
  if (!options.sharding.parse(argc, argv, value_flags, print_usage)) {
    return false;
  }
  if (!(options.split_frac > 0.0 && options.split_frac < 1.0)) {
    std::fprintf(stderr, "run_table1: --split-frac must be in (0, 1)\n");
    return false;
  }
  return true;
}

/// Corpus -> split -> trained predictor, bit-identical in every
/// process that passes the same flags (generation, the split RNG and
/// GPR training are all deterministic) — the cross-process contract
/// run_table1_shard requires of its callers.
struct Harness {
  qaoaml::core::ParameterDataset dataset;
  std::vector<std::size_t> test;
  qaoaml::core::ParameterPredictor predictor;
};

Harness build_harness(const CliOptions& options) {
  Harness h;
  if (!options.corpus.empty()) {
    const std::string path =
        (std::filesystem::path(options.sharding.directory) / options.corpus)
            .string();
    h.dataset = qaoaml::core::ParameterDataset::load(path);
  } else {
    h.dataset = qaoaml::core::ParameterDataset::generate(options.dataset);
  }
  qaoaml::Rng rng(options.split_seed);
  auto [train, test] = h.dataset.split_indices(options.split_frac, rng);
  h.test = std::move(test);
  h.predictor.train(h.dataset, train);
  return h;
}

/// Machine-readable report: 17 significant digits round-trip doubles
/// exactly, so the bytes are identical for every shard/thread count.
void write_report(std::ostream& os, const std::vector<TableRow>& rows) {
  os << "qaoaml-table1-report-v1\n";
  os << std::setprecision(17);
  for (const TableRow& row : rows) {
    os << "row " << qaoaml::optim::to_string(row.optimizer) << ' '
       << row.target_depth << ' ' << row.naive_ar_mean << ' '
       << row.naive_ar_sd << ' ' << row.naive_fc_mean << ' '
       << row.naive_fc_sd << ' ' << row.ml_ar_mean << ' ' << row.ml_ar_sd
       << ' ' << row.ml_fc_mean << ' ' << row.ml_fc_sd << ' '
       << row.fc_reduction_percent << '\n';
  }
  os << "average_fc_reduction " << qaoaml::core::average_fc_reduction(rows)
     << '\n';
}

void print_rows(const std::vector<TableRow>& rows) {
  qaoaml::Table table({"Optimizer", "p", "AR(naive)", "FC(naive)", "AR(ML)",
                       "FC(ML)", "FC red %"});
  for (const TableRow& row : rows) {
    table.add_row({qaoaml::optim::to_string(row.optimizer),
                   qaoaml::Table::num(static_cast<long long>(row.target_depth)),
                   qaoaml::Table::num(row.naive_ar_mean),
                   qaoaml::Table::num(row.naive_fc_mean, 1),
                   qaoaml::Table::num(row.ml_ar_mean),
                   qaoaml::Table::num(row.ml_fc_mean, 1),
                   qaoaml::Table::num(row.fc_reduction_percent, 1)});
  }
  table.print(std::cout);
  std::printf("average FC reduction: %.1f%%\n",
              qaoaml::core::average_fc_reduction(rows));
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  // A CI-friendly default corpus; scale up explicitly.
  options.dataset.num_graphs = 24;
  options.dataset.restarts = 10;
  options.dataset.seed = 11;
  try {
    if (!parse_args(argc, argv, options)) {
      print_usage();
      return 2;
    }
    // One harness serves both phases: the shard runs need the trained
    // predictor, the merge re-derives the same dataset + test split to
    // key the shard files.
    const Harness h = build_harness(options);
    const qaoaml::cli::ShardCli& sharding = options.sharding;

    const bool merge = sharding.run_shards([&](int s, const auto& progress) {
      const auto report = qaoaml::core::run_table1_shard(
          h.dataset, h.test, h.predictor, options.sweep,
          ShardSpec{s, sharding.shards}, sharding.directory, progress);
      std::printf("shard %d/%d: %zu units (%zu resumed, %zu generated) in "
                  "%.2f s\n  data %s\n",
                  s, sharding.shards, report.units_owned, report.units_resumed,
                  report.units_generated, report.seconds,
                  report.data_path.c_str());
      return report;
    });
    if (!merge) return 0;
    const std::vector<TableRow> rows = qaoaml::core::merge_table1_shards(
        h.dataset, h.test, options.sweep, sharding.shards,
        sharding.directory);
    print_rows(rows);
    sharding.write_out([&](std::ostream& os) { write_report(os, rows); });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_table1: %s\n", e.what());
    return 1;
  }
  return 0;
}
