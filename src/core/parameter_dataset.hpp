// The training corpus of optimal QAOA parameters.
//
// Mirrors the paper's data-generation phase: an ensemble of problem
// graphs (default: Erdos-Renyi G(n = 8, p_edge = 0.5), the paper's;
// pluggable via DatasetConfig::ensemble — see core/graph_ensemble.hpp),
// each optimized at every depth p = 1..6 with multistart L-BFGS-B
// (tolerance 1e-6), keeping the best optimum.  At full scale (330
// graphs) the corpus holds 330 * (2+4+...+12) = 13,860 optimal
// parameters — the paper's headline dataset size.
//
// Contracts:
//  - **Determinism.**  Record g is a pure function of (DatasetConfig, g)
//    (see instance_record_tasks): generation is bit-identical for
//    every thread count, shard layout and call order.  save() output is
//    therefore byte-identical across runs, which is what the corpus
//    pipeline's merge guarantee (core/corpus_pipeline.hpp) and the
//    on-disk cache key (to_string(config)) rely on.
//  - **Thread-safety.**  ParameterDataset is immutable after
//    construction; concurrent readers need no synchronization.
//    generate() parallelizes internally and must not be called from
//    inside a parallel_* body.
//  - **Angle units.**  Stored optima use the packed layout of
//    core/angles.hpp — [gamma_1..gamma_p, beta_1..beta_p], radians,
//    gamma in [0, 2*pi], beta in [0, pi] — canonicalized into the
//    beta_1 <= pi/2 half-domain when the cut spectrum is integral.
//  - **Persistence.**  save()/load() round-trip exactly (doubles are
//    printed with 17 significant digits); load() recomputes max_cut
//    rather than trusting the file.
#ifndef QAOAML_CORE_PARAMETER_DATASET_HPP
#define QAOAML_CORE_PARAMETER_DATASET_HPP

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_ensemble.hpp"
#include "core/qaoa_solver.hpp"
#include "core/sharded_run.hpp"
#include "graph/graph.hpp"
#include "optim/optimizer.hpp"

namespace qaoaml::core {

/// All optimal-parameter data for one problem graph.
struct InstanceRecord {
  int id = 0;
  graph::Graph problem;
  double max_cut = 0.0;

  /// optimal_params[p - 1] = canonicalized best angles at depth p
  /// (length 2p).
  std::vector<std::vector<double>> optimal_params;
  /// Best expectation per depth.
  std::vector<double> expectation;
  /// Approximation ratio per depth.
  std::vector<double> approximation_ratio;
  /// Total function calls spent generating each depth's optimum.
  std::vector<int> generation_fc;

  /// gamma_i / beta_i accessors at a given depth (1-based stage i).
  double gamma_opt(int p, int i) const;
  double beta_opt(int p, int i) const;
};

/// Generation settings (defaults = the paper's full-scale setup).
struct DatasetConfig {
  int num_graphs = 330;
  int num_nodes = 8;
  EnsembleConfig ensemble{};   ///< instance distribution (default:
                               ///  Erdos-Renyi p=0.5, the paper's)
  int min_edges = 1;           ///< resample graphs with fewer edges
  int max_depth = 6;
  int restarts = 20;           ///< random initializations per (graph, p)
  optim::OptimizerKind optimizer = optim::OptimizerKind::kLbfgsb;
  optim::Options options{};    ///< ftol defaults to 1e-6
  std::uint64_t seed = 42;

  /// Objective evaluation during corpus optimization
  /// (core/eval_spec.hpp).  Default exact — the paper's setting, and
  /// what a corpus of true optima wants.  Sampled mode generates the
  /// corpus a real device would have produced (every multistart and
  /// heuristic-seed refinement optimizes a finite-shot estimate, with
  /// measurement streams drawn from the per-graph rng, so records stay
  /// pure functions of (config, index)).  Part of the config key.
  EvalSpec eval{};
};

/// Immutable corpus of per-graph optimal parameters.
class ParameterDataset {
 public:
  ParameterDataset() = default;
  ParameterDataset(DatasetConfig config, std::vector<InstanceRecord> records);

  /// Generates the corpus (parallel across graphs, deterministic in
  /// `config.seed` regardless of thread count).
  static ParameterDataset generate(const DatasetConfig& config);

  const DatasetConfig& config() const { return config_; }
  const std::vector<InstanceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  int max_depth() const { return config_.max_depth; }

  /// Total number of stored optimal parameters: sum over graphs and
  /// depths of 2p (13,860 at full scale).
  std::size_t total_parameter_count() const;

  /// Shuffled (train, test) record-index split; the paper uses 20:80.
  std::pair<std::vector<std::size_t>, std::vector<std::size_t>> split_indices(
      double train_fraction, Rng& rng) const;

  /// Text persistence; benches cache the generated corpus on disk.
  void save(const std::string& path) const;
  static ParameterDataset load(const std::string& path);

  /// The literal config line a load() came from (empty for generated
  /// datasets).  load_or_generate compares THIS against the requested
  /// key, so recipe-version bumps ("gen=N" in to_string) invalidate
  /// stale caches even though gen is not a DatasetConfig field.
  const std::string& source_key() const { return source_key_; }

  /// Loads from `path` when present and generated with an identical
  /// config; otherwise generates and saves.
  static ParameterDataset load_or_generate(const DatasetConfig& config,
                                           const std::string& path);

 private:
  DatasetConfig config_;
  std::vector<InstanceRecord> records_;
  std::string source_key_;
};

/// One-line summary of a config (also the cache key).
std::string to_string(const DatasetConfig& config);

/// Validates every generation-relevant field (>= 1 graph and depth,
/// num_nodes within the exact-MaxCut limit [1, 30], the ensemble's
/// family knobs, min_edges reachable under the selected family);
/// throws InvalidArgument otherwise.  Every
/// generation entry point — ParameterDataset::generate and the corpus
/// pipeline — calls this BEFORE touching any on-disk state, so a typo'd
/// config errors instantly instead of clobbering completed shards.
void validate(const DatasetConfig& config);

/// The record of corpus unit `index` (the index-th graph), as thread-pool
/// tasks (core/sharded_run.hpp's run_units_in_order): one instance
/// sampled from config.ensemble plus its best multistart optimum at
/// every depth 1..config.max_depth.  The record depends only on (config,
/// index) — never on thread count, shard layout, call order or task
/// order — which is what makes sharded corpus generation
/// bit-reproducible (core/corpus_pipeline.hpp).
///
/// Planning samples the graph and draws every random input from the
/// unit's stream, in the order a one-after-another generation consumes
/// them (per depth: the restarts' starts, their stream seeds, the ramp
/// seed, the INTERP seed; seeds only when sampling).  One task per
/// (depth, random restart) and one per depth's linear-ramp seed,
/// max_depth * (restarts + 1) in all; finish reduces each depth in
/// restart order, then applies the ramp and the INTERP bootstrap from
/// the depth-(p-1) optimum, which it solves itself because each link
/// needs the one before.  The plan holds a copy of
/// `config` and one instance per depth until finish returns.  Validates
/// `config` first.
UnitTasks<InstanceRecord> instance_record_tasks(const DatasetConfig& config,
                                                std::size_t index);

namespace detail {

/// Serializes one record in the dataset text format (one "graph" line,
/// then one "params" line per depth; 17 significant digits).  Shared by
/// ParameterDataset::save and the corpus pipeline's shard writer so the
/// two produce byte-identical record blocks.
void write_record(std::ostream& os, const InstanceRecord& record);

/// Feeds one body line of the dataset format into an in-progress record
/// list: "graph ..." starts a record, "params ..." appends the next
/// depth to the last one.  Returns false on any other tag; throws Error
/// on malformed lines.  `compute_max_cut` re-runs the exact MaxCut
/// brute force per graph (O(2^nodes)) — callers that only re-serialize
/// records (the shard resume path) pass false and leave max_cut at 0.
bool consume_record_line(const std::string& line,
                         std::vector<InstanceRecord>& records,
                         bool compute_max_cut = true);

}  // namespace detail

}  // namespace qaoaml::core

#endif  // QAOAML_CORE_PARAMETER_DATASET_HPP
