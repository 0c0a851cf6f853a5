// Command-line driver for the sharded cross-family warm-start transfer
// matrix (core/transfer_experiment.hpp).
//
// For every (train family x eval family x model) cell it trains a
// predictor bank on the train family's corpus and compares warm-started
// against cold-started optimization on fresh eval-family instances.
// Shards follow the corpus pipeline's operational model: one shard per
// invocation (or all in-process), kill/resume from the last committed
// unit, and a merge whose cells are bit-identical to the unsharded
// sweep for every shard and thread count.
//
//   # the whole matrix, one process:
//   run_transfer --families erdos-renyi,small-world --models GPR,LM
//       --dir /tmp/transfer --out report.txt
//
//   # the same matrix split over two machines on shared storage:
//   run_transfer --families er,small-world --dir /shared --shards 2 --shard 0
//   run_transfer --families er,small-world --dir /shared --shards 2 --shard 1
//   run_transfer --families er,small-world --dir /shared --shards 2
//       --merge-only --out report.txt
//
// Thread count comes from QAOAML_THREADS; docs/EXPERIMENTS.md walks
// through the full protocol.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/shard_cli.hpp"
#include "common/table.hpp"
#include "core/transfer_experiment.hpp"

namespace {

using qaoaml::cli::split_list;
using qaoaml::cli::to_int;
using qaoaml::cli::to_u64;
using qaoaml::core::ShardSpec;
using qaoaml::core::TransferCell;
using qaoaml::core::TransferConfig;

struct CliOptions {
  TransferConfig transfer;
  qaoaml::cli::ShardCli sharding{"run_transfer"};
};

void print_usage() {
  std::printf(
      "usage: run_transfer [options]\n"
      "\n"
      "matrix axes:\n"
      "  --families LIST  comma-separated graph families (default\n"
      "                   erdos-renyi,small-world): erdos-renyi | regular |\n"
      "                   weighted-erdos-renyi | small-world | mixed\n"
      "                   (family knobs use library defaults; use the C++\n"
      "                   API for custom knob values)\n"
      "  --models LIST    comma-separated model kinds (default GPR):\n"
      "                   GPR | LM | RTREE | RSVM\n"
      "\n"
      "train side (per-family corpus):\n"
      "  --nodes N            nodes per graph (default 8)\n"
      "  --train-graphs N     corpus instances per family (default 24)\n"
      "  --depth D            corpus depths 1..D (default 4)\n"
      "  --corpus-restarts R  multistart count per (graph, depth) (default 8)\n"
      "\n"
      "eval side:\n"
      "  --eval-graphs N      fresh instances per eval family (default 8)\n"
      "  --target-depth P     depth both arms optimize (default 3)\n"
      "  --cold-restarts R    random inits in the cold arm (default 8)\n"
      "  --warm-repeats R     two-level repeats per instance (default 1)\n"
      "  --optimizer S        L-BFGS-B | Nelder-Mead | SLSQP | COBYLA\n"
      "  --seed S             master seed (default 2020)\n"
      "  --objective-mode M   exact (default) | sampled — sampled runs both\n"
      "                       eval arms on finite-shot estimates (training\n"
      "                       corpora stay exact) with exact-rescored ARs\n"
      "  --shots N            shots per estimate (default 1024); implies\n"
      "                       --objective-mode sampled\n"
      "  --shot-averaging K   estimates averaged per objective call\n"
      "\n");
  qaoaml::cli::ShardCli::print_usage(
      "  --out PATH       write the machine-readable report here (relative\n"
      "                   to --dir unless absolute); bytes are identical\n"
      "                   for every shard/thread count\n");
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  const std::vector<qaoaml::cli::ValueFlag> value_flags = {
      {"--families",
       [&](const char* v) {
         options.transfer.families.clear();
         for (const std::string& name : split_list(v)) {
           qaoaml::core::EnsembleConfig ensemble;
           ensemble.family =
               qaoaml::core::family_from_string(name);  // throws on typo
           options.transfer.families.push_back(ensemble);
         }
         return !options.transfer.families.empty();
       }},
      {"--models",
       [&](const char* v) {
         options.transfer.models.clear();
         for (const std::string& name : split_list(v)) {
           options.transfer.models.push_back(
               qaoaml::ml::regressor_from_string(name));  // throws on typo
         }
         return !options.transfer.models.empty();
       }},
      {"--nodes",
       [&](const char* v) { return to_int(v, options.transfer.num_nodes); }},
      {"--train-graphs",
       [&](const char* v) {
         return to_int(v, options.transfer.train_graphs);
       }},
      {"--depth",
       [&](const char* v) { return to_int(v, options.transfer.max_depth); }},
      {"--corpus-restarts",
       [&](const char* v) {
         return to_int(v, options.transfer.corpus_restarts);
       }},
      {"--eval-graphs",
       [&](const char* v) {
         return to_int(v, options.transfer.eval_graphs);
       }},
      {"--target-depth",
       [&](const char* v) {
         return to_int(v, options.transfer.target_depth);
       }},
      {"--cold-restarts",
       [&](const char* v) {
         return to_int(v, options.transfer.cold_restarts);
       }},
      {"--warm-repeats",
       [&](const char* v) {
         return to_int(v, options.transfer.warm_repeats);
       }},
      {"--optimizer",
       [&](const char* v) {
         options.transfer.optimizer =
             qaoaml::optim::optimizer_from_string(v);  // throws on typo
         return true;
       }},
      {"--seed",
       [&](const char* v) { return to_u64(v, options.transfer.seed); }},
      {"--objective-mode",
       [&](const char* v) {
         options.transfer.eval.mode =
             qaoaml::core::objective_mode_from_string(v);  // throws
         return true;
       }},
      {"--shots",
       [&](const char* v) {
         options.transfer.eval.mode =
             qaoaml::core::ObjectiveMode::kSampled;
         return to_int(v, options.transfer.eval.shots);
       }},
      {"--shot-averaging",
       [&](const char* v) {
         return to_int(v, options.transfer.eval.averaging);
       }},
  };
  return options.sharding.parse(argc, argv, value_flags, print_usage);
}

void print_matrix(const TransferConfig& config,
                  const std::vector<TransferCell>& cells) {
  qaoaml::Table table({"train \\ eval", "model", "cold FC", "warm FC",
                       "FC red %", "cold AR", "warm AR", "dAR"});
  for (const TransferCell& cell : cells) {
    table.add_row({to_string(config.families[cell.train_family].family) +
                       " -> " +
                       to_string(config.families[cell.eval_family].family),
                   qaoaml::ml::to_string(cell.model),
                   qaoaml::Table::num(cell.cold_fc_mean, 1),
                   qaoaml::Table::num(cell.warm_fc_mean, 1),
                   qaoaml::Table::num(cell.fc_reduction_percent, 1),
                   qaoaml::Table::num(cell.cold_ar_mean, 4),
                   qaoaml::Table::num(cell.warm_ar_mean, 4),
                   qaoaml::Table::num(cell.ar_delta, 4)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  // A CI-friendly default matrix; scale up explicitly.
  options.transfer.families.resize(2);
  options.transfer.families[1].family = qaoaml::core::GraphFamily::kSmallWorld;
  try {
    if (!parse_args(argc, argv, options)) {
      print_usage();
      return 2;
    }

    const qaoaml::cli::ShardCli& sharding = options.sharding;
    const bool merge = sharding.run_shards([&](int s, const auto& progress) {
      const auto report = qaoaml::core::run_transfer_shard(
          options.transfer, ShardSpec{s, sharding.shards}, sharding.directory,
          progress);
      std::printf(
          "shard %d/%d: %zu units (%zu resumed, %zu generated), "
          "%zu banks trained in %.2f s\n  data %s\n",
          s, sharding.shards, report.units_owned, report.units_resumed,
          report.units_generated, report.banks_trained, report.seconds,
          report.data_path.c_str());
      return report;
    });
    if (!merge) return 0;
    const std::vector<TransferCell> cells = qaoaml::core::merge_transfer_shards(
        options.transfer, sharding.shards, sharding.directory);
    print_matrix(options.transfer, cells);
    sharding.write_out([&](std::ostream& os) {
      qaoaml::core::write_transfer_report(os, options.transfer, cells);
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_transfer: %s\n", e.what());
    return 1;
  }
  return 0;
}
