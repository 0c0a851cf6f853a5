// Cross-family warm-start transfer: the paper's Table-I protocol
// generalized into an N x N x M matrix sweep.
//
// The paper trains its predictor on the same Erdos-Renyi distribution
// it evaluates on; the interesting question (Khairy et al.,
// arXiv:1911.11071) is whether warm-start parameters *transfer* — does
// a predictor trained on family A still accelerate QAOA on instances
// drawn from family B?  This subsystem answers that empirically: for
// every (train family x eval family x model kind) cell it
//
//   1. generates a training corpus from the TRAIN ensemble
//      (ParameterDataset::generate under the cell's family),
//   2. trains a predictor bank of the cell's model kind on it,
//   3. draws FRESH eval instances from the EVAL ensemble (a stream
//      disjoint from every corpus stream),
//   4. runs a cold arm (batched solve_multistart from random
//      initializations) and a warm arm (the two-level flow seeded by
//      the bank) on each instance, and
//   5. reports function-call, iteration and approximation-ratio deltas.
//
// The diagonal cells reproduce the paper's same-distribution protocol;
// the off-diagonal cells are the transfer matrix.
//
// Contracts:
//  - **Determinism.**  run_transfer is deterministic in
//    TransferConfig::seed: corpora, banks, eval instances, and both
//    arms' RNG streams are keyed by (seed, cell/family, instance index)
//    only, so results are bit-identical for every thread count, shard
//    layout and scheduling order.  The cold arm's stream is keyed by
//    (eval family, instance) alone, so the cold baseline of one eval
//    column is identical across every train family and model — cells
//    in a column differ only by their warm arm, which is what makes
//    the matrix comparable.
//  - **Sharding.**  The flat (cell, eval instance) unit space runs on
//    the sharded-unit engine the Table-I sweep uses
//    (core/sharded_run.hpp): per-shard single-line result files,
//    longest-valid-prefix resume after a kill, atomic prefix rewrites,
//    a flock sidecar against duplicate invocations, and a merge that
//    reproduces run_transfer bit for bit.  Each shard retrains the
//    banks it needs from the config — deterministic training makes the
//    bank part of the config, so "nothing is shared but the config"
//    holds here too (and predictor-bank serialization in
//    core/parameter_predictor.hpp covers the train-once/serve-many case
//    outside this sweep).
//  - **Scheduling.**  Within a run, bank training happens first (it
//    parallelizes internally), then all owned units fan out as one
//    asynchronous wave (run_units_in_order).  Each shard computes the
//    cold arm of an (eval family, instance) pair once and shares it
//    across that pair's owned cells.  Must not be called from inside a
//    parallel_* body.
//  - **Units.**  FC counts are raw objective-function calls, iteration
//    counts are optimizer iterations summed across restarts/stages,
//    AR is expectation / exact MaxCut.
#ifndef QAOAML_CORE_TRANSFER_EXPERIMENT_HPP
#define QAOAML_CORE_TRANSFER_EXPERIMENT_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/parameter_predictor.hpp"

namespace qaoaml::core {

/// Sweep settings.  Defaults are a CI-scale run; the benches and tools
/// scale them up through flags / environment knobs.
struct TransferConfig {
  /// The matrix axes: instance distributions used both as train and as
  /// eval families (an N-entry list yields an N x N matrix).
  std::vector<EnsembleConfig> families;
  /// Model kinds swept per (train, eval) pair.
  std::vector<ml::RegressorKind> models{ml::RegressorKind::kGpr};

  // Train side: one corpus per family, generated with these knobs.
  int num_nodes = 8;
  int train_graphs = 24;     ///< corpus instances per train family
  int max_depth = 4;         ///< corpus depths 1..D (also caps target_depth)
  int corpus_restarts = 8;   ///< multistart count per (graph, depth)

  // Eval side.
  int eval_graphs = 8;       ///< fresh instances per eval family
  int target_depth = 3;      ///< depth both arms optimize (2..max_depth)
  int cold_restarts = 8;     ///< random inits in the cold multistart arm
  int warm_repeats = 1;      ///< two-level repeats (level-1 noise)

  optim::OptimizerKind optimizer = optim::OptimizerKind::kLbfgsb;
  optim::Options options{};  ///< ftol defaults to 1e-6
  std::uint64_t seed = 2020;

  /// Objective evaluation for BOTH eval arms (cold multistart and warm
  /// two-level), core/eval_spec.hpp.  The per-family training corpora
  /// stay exact regardless — the Streif & Leib "train without a QPU"
  /// setting: clean training optima, noisy deployment.  Part of the
  /// transfer config key, so a spec change invalidates stale shards.
  EvalSpec eval{};
};

/// One cell of the transfer matrix, aggregated over eval instances
/// (means and SDs across instances; iteration means across instances
/// of per-instance summed optimizer iterations).
struct TransferCell {
  std::size_t train_family = 0;  ///< index into TransferConfig::families
  std::size_t eval_family = 0;
  ml::RegressorKind model = ml::RegressorKind::kGpr;

  double cold_ar_mean = 0.0;
  double cold_ar_sd = 0.0;
  double cold_fc_mean = 0.0;
  double cold_fc_sd = 0.0;
  double cold_iter_mean = 0.0;

  double warm_ar_mean = 0.0;
  double warm_ar_sd = 0.0;
  double warm_fc_mean = 0.0;
  double warm_fc_sd = 0.0;
  double warm_iter_mean = 0.0;

  /// warm_ar_mean - cold_ar_mean (positive: warm start helps quality).
  double ar_delta = 0.0;
  /// 100 * (cold_fc_mean - warm_fc_mean) / cold_fc_mean.
  double fc_reduction_percent = 0.0;
  /// 100 * (cold_iter_mean - warm_iter_mean) / cold_iter_mean.
  double iter_reduction_percent = 0.0;
};

/// Validates every sweep knob (family list and knobs, model list,
/// corpus shape, target depth within the corpus range); throws
/// InvalidArgument otherwise.  Every entry point calls this before
/// touching on-disk state.
void validate(const TransferConfig& config);

/// The corpus-generation config of `family`'s train corpus — exposed so
/// tools and docs can reproduce exactly the corpus a transfer cell
/// trains on.
DatasetConfig transfer_corpus_config(const TransferConfig& config,
                                     std::size_t family);

/// Draws eval instance `index` of `family`: a pure function of
/// (config, family, index) on a stream disjoint from the corpus
/// streams, so eval instances are genuinely held out.  Instances with
/// zero edges are resampled (an edgeless MaxCut has no defined AR).
graph::Graph transfer_eval_instance(const TransferConfig& config,
                                    std::size_t family, std::size_t index);

/// Trains the bank of one (train corpus, model) pair on ALL corpus
/// records (the eval side is held out by construction, so no split is
/// needed).  Deterministic in its inputs.
ParameterPredictor train_transfer_bank(const ParameterDataset& corpus,
                                       ml::RegressorKind model);

/// Runs the full matrix in-process.  Cell order: train family major,
/// then eval family, then model (the order the axes are declared in).
std::vector<TransferCell> run_transfer(const TransferConfig& config);

/// Writes the machine-readable report: one "cell" line per matrix cell
/// with 17 significant digits (exact double round-trip), preceded by
/// the config key.  Byte-identical for every shard/thread count —
/// tools/run_transfer --out writes this format and CI diffs it.
void write_transfer_report(std::ostream& os, const TransferConfig& config,
                           const std::vector<TransferCell>& cells);

// ---------------------------------------------------------------------
// Sharded sweep, checkpointed by the sharded-unit engine
// (core/sharded_run.hpp) in the qaoaml-transfer-shard-v1 format; see
// the header comment.
// ---------------------------------------------------------------------

/// What one run_transfer_shard call did.
struct TransferShardReport : ShardRunReport {
  std::size_t banks_trained = 0;  ///< predictor banks this run trained
};

/// Shard result-file location inside `directory`.
std::string transfer_shard_path(const std::string& directory,
                                const ShardSpec& shard);

/// Computes (or resumes) one shard of the transfer sweep.  Banks are
/// retrained and cold baselines computed only for the units still
/// pending after the resume (nothing, when none are), then every
/// pending unit is computed and streamed to the shard file in unit
/// order.  `progress` (optional) follows the ShardProgressFn contract
/// of core/sharded_run.hpp.
TransferShardReport run_transfer_shard(const TransferConfig& config,
                                       const ShardSpec& shard,
                                       const std::string& directory,
                                       const ShardProgressFn& progress = {});

/// Merges the complete shard files of a `shard_count`-way run into the
/// aggregated cells.  Throws if any shard is missing units or was
/// produced under a different config.  Bit-identical to
/// run_transfer(config) for every (shard count, thread count)
/// combination.
std::vector<TransferCell> merge_transfer_shards(const TransferConfig& config,
                                                int shard_count,
                                                const std::string& directory);

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_TRANSFER_EXPERIMENT_HPP
