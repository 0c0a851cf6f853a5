// The Table I experiment harness: naive random initialization vs the
// two-level ML flow, swept over optimizers and target depths on the
// held-out test graphs.
//
// Contracts:
//  - **Determinism.**  run_table1 is deterministic in
//    ExperimentConfig::seed: each (optimizer, depth, graph) unit draws
//    from its own RNG stream keyed by (seed, graph id, depth,
//    optimizer), so results are bit-identical for every thread count
//    and scheduling order.
//  - **Scheduling.**  Units are the shard, file and merge granularity;
//    runs are the scheduling granularity.  A (cell, graph) unit is
//    planned by drawing every run's random inputs from its keyed stream
//    up front, and its naive runs and ML repeats then go to the
//    persistent thread pool as separate tasks
//    (core/sharded_run.hpp's run_units_in_order).  The whole sweep is
//    one asynchronous wave: there is no barrier between table cells,
//    and one unit's runs do not wait on each other.  run_table1 must
//    not be called from inside a parallel_* body.
//  - **Units.**  FC counts are raw objective-function calls (the
//    paper's run-time metric); AR is expectation / exact MaxCut, and
//    all angles handled internally follow core/angles.hpp (radians,
//    [gamma..., beta...] packing).
#ifndef QAOAML_CORE_EXPERIMENT_HPP
#define QAOAML_CORE_EXPERIMENT_HPP

#include <string>
#include <vector>

#include "core/corpus_pipeline.hpp"
#include "core/two_level_solver.hpp"

namespace qaoaml::core {

/// Aggregated statistics of one (optimizer, depth) cell of Table I.
struct TableRow {
  optim::OptimizerKind optimizer = optim::OptimizerKind::kLbfgsb;
  int target_depth = 2;

  double naive_ar_mean = 0.0;
  double naive_ar_sd = 0.0;
  double naive_fc_mean = 0.0;  ///< raw mean function calls
  double naive_fc_sd = 0.0;

  double ml_ar_mean = 0.0;
  double ml_ar_sd = 0.0;
  double ml_fc_mean = 0.0;
  double ml_fc_sd = 0.0;

  /// 100 * (naive_fc_mean - ml_fc_mean) / naive_fc_mean.
  double fc_reduction_percent = 0.0;
};

/// Sweep settings (defaults = the paper's Section IV setup, scaled by
/// the benches through env knobs).
struct ExperimentConfig {
  std::vector<optim::OptimizerKind> optimizers = optim::all_optimizers();
  std::vector<int> target_depths{2, 3, 4, 5};
  int naive_runs = 20;   ///< random initializations per graph (naive arm)
  int ml_repeats = 3;    ///< two-level repeats per graph (level-1 noise)
  optim::Options options{};
  std::uint64_t seed = 7;

  /// Objective evaluation for both arms (core/eval_spec.hpp).  Sampled
  /// mode re-runs the sweep under shot noise: every solver stage
  /// optimizes a finite-shot estimate (measurement streams drawn from
  /// each unit's own rng stream, preserving shard purity) and reports
  /// exact-rescored ARs.  Part of the shard config line, so changing it
  /// invalidates stale shard files.
  EvalSpec eval{};
};

/// Runs the full sweep.  Per-graph statistics are averaged first, then
/// aggregated across graphs (mean and SD reported across graphs).
/// Parallel across graphs; deterministic in `config.seed`.
std::vector<TableRow> run_table1(const ParameterDataset& dataset,
                                 const std::vector<std::size_t>& test_records,
                                 const ParameterPredictor& predictor,
                                 const ExperimentConfig& config);

/// Average FC reduction over all rows (the paper's headline 44.9%).
double average_fc_reduction(const std::vector<TableRow>& rows);

// ---------------------------------------------------------------------
// Sharded Table-I: the sweep's flat (cell, graph) unit space split
// round-robin across processes/machines and checkpointed by the
// sharded-unit engine (core/sharded_run.hpp) — per-shard result files
// in the qaoaml-table1-shard-v1 format, longest-valid-prefix resume
// after a kill, and a deterministic merge that reproduces run_table1
// bit for bit.
//
// The shard file's config line covers the dataset key, the test-record
// set, and every ExperimentConfig field, so a stale shard (different
// sweep) is discarded instead of silently merged.  The predictor is
// NOT part of the key — callers must hand every shard and the merge a
// predictor trained identically (deterministic training from the same
// dataset/split/seed, as bench_common does); this mirrors the corpus
// pipeline's "nothing is shared but the config" model.
// ---------------------------------------------------------------------

/// What one run_table1_shard call did.
using Table1ShardReport = ShardRunReport;

/// Shard result-file location inside `directory`.
std::string table1_shard_path(const std::string& directory,
                              const ShardSpec& shard);

/// Computes (or resumes) one shard of the Table-I sweep: every owned
/// (cell, graph) unit not already on disk is computed and streamed to
/// the shard file in unit order, with the engine's resume, atomic
/// rewrite and fail-fast lock guarantees.  `progress` (optional)
/// follows the ShardProgressFn contract of core/sharded_run.hpp.
Table1ShardReport run_table1_shard(const ParameterDataset& dataset,
                                   const std::vector<std::size_t>& test_records,
                                   const ParameterPredictor& predictor,
                                   const ExperimentConfig& config,
                                   const ShardSpec& shard,
                                   const std::string& directory,
                                   const ShardProgressFn& progress = {});

/// Merges the complete shard files of a `shard_count`-way Table-I run
/// into the aggregated rows.  Throws if any shard is missing units or
/// was produced under a different config.  The result is bit-identical
/// to run_table1(dataset, test_records, predictor, config) for every
/// (shard count, thread count) combination.
std::vector<TableRow> merge_table1_shards(
    const ParameterDataset& dataset,
    const std::vector<std::size_t>& test_records,
    const ExperimentConfig& config, int shard_count,
    const std::string& directory);

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_EXPERIMENT_HPP
