#include "core/transfer_experiment.hpp"

#include <memory>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "core/two_level_solver.hpp"
#include "stats/descriptive.hpp"

namespace qaoaml::core {
namespace {

// Stream salts: eval-instance sampling, the cold arm and the warm arm
// draw from disjoint seed families, and all of them are disjoint from
// the corpus streams (which use config.seed directly inside
// instance_record_tasks).
constexpr std::uint64_t kEvalSalt = 0xE7A1;
constexpr std::uint64_t kColdSalt = 0xC01D;
constexpr std::uint64_t kWarmSalt = 0x3AB3;

/// SplitMix-style mix of (seed, salt, a, b) into one stream seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
                       std::uint64_t b) {
  std::uint64_t h = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  h ^= (a + 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
  h ^= (b + 0x94d049bb133111ebULL) * 0xff51afd7ed558ccdULL;
  return h;
}

/// One (train family, eval family, model) cell; `model` indexes
/// TransferConfig::models.
struct CellKey {
  std::size_t train;
  std::size_t eval;
  std::size_t model;
};

std::vector<CellKey> transfer_cells(const TransferConfig& config) {
  std::vector<CellKey> cells;
  for (std::size_t t = 0; t < config.families.size(); ++t) {
    for (std::size_t e = 0; e < config.families.size(); ++e) {
      for (std::size_t m = 0; m < config.models.size(); ++m) {
        cells.push_back(CellKey{t, e, m});
      }
    }
  }
  return cells;
}

/// Per-(cell, instance) results — the sharded sweep's unit payload.
struct TransferUnitStats {
  double cold_ar = 0.0;
  double cold_fc = 0.0;
  double cold_iters = 0.0;
  double warm_ar = 0.0;
  double warm_fc = 0.0;
  double warm_iters = 0.0;
};

struct ColdStats {
  double ar = 0.0;
  double fc = 0.0;
  double iters = 0.0;
};

/// Cold arm of one (eval family, instance) pair.  Pure function of
/// (config, e, g) — deliberately independent of the cell's train
/// family and model, so every cell of an eval column shares one
/// baseline.
ColdStats compute_cold(const TransferConfig& config, std::size_t e,
                       std::size_t g) {
  const graph::Graph problem = transfer_eval_instance(config, e, g);
  Rng rng(mix_seed(config.seed, kColdSalt, e, g));
  const MaxCutQaoa instance(problem, config.target_depth);
  const MultistartRuns runs =
      solve_multistart(instance, config.optimizer, config.cold_restarts, rng,
                       config.eval, config.options);
  ColdStats out;
  out.ar = runs.best.approximation_ratio;
  out.fc = static_cast<double>(runs.total_function_calls);
  for (const QaoaRun& run : runs.runs) {
    out.iters += static_cast<double>(run.iterations);
  }
  return out;
}

/// Warm arm of one (cell, instance) pair: the two-level flow seeded by
/// the cell's bank, averaged over warm_repeats.  Pure function of
/// (config, bank, cell index, g).
TransferUnitStats compute_warm(const TransferConfig& config,
                               const ParameterPredictor& bank,
                               std::size_t cell_index, std::size_t eval_family,
                               std::size_t g) {
  const graph::Graph problem =
      transfer_eval_instance(config, eval_family, g);
  Rng rng(mix_seed(config.seed, kWarmSalt, cell_index, g));
  TwoLevelConfig two_level;
  two_level.optimizer = config.optimizer;
  two_level.options = config.options;
  two_level.eval = config.eval;

  TransferUnitStats out;
  for (int rep = 0; rep < config.warm_repeats; ++rep) {
    const AcceleratedRun run = solve_two_level(
        problem, config.target_depth, bank, two_level, rng);
    out.warm_ar += run.final.approximation_ratio;
    out.warm_fc += static_cast<double>(run.total_function_calls);
    out.warm_iters += static_cast<double>(run.level1.iterations +
                                          run.intermediate.iterations +
                                          run.final.iterations);
  }
  const double repeats = static_cast<double>(config.warm_repeats);
  out.warm_ar /= repeats;
  out.warm_fc /= repeats;
  out.warm_iters /= repeats;
  return out;
}

/// What a list of units needs before any of them runs: the banks of
/// their cells (indexed by train_family * models.size() + model) and
/// the cold baselines of their (eval family, instance) pairs (indexed
/// by eval_family * eval_graphs + g).  Only those entries are filled.
struct UnitInputs {
  std::vector<std::unique_ptr<ParameterPredictor>> banks;
  std::vector<ColdStats> cold;
  std::size_t banks_trained = 0;
};

/// Trains the needed banks — each family's corpus generated once,
/// sequential at the top level (corpus generation and GPR training
/// parallelize internally) — then computes the needed cold baselines
/// as one parallel wave.  Deterministic in the config.
UnitInputs prepare_units(const TransferConfig& config,
                         const std::vector<CellKey>& cells,
                         const std::vector<std::size_t>& units) {
  const std::size_t graphs = static_cast<std::size_t>(config.eval_graphs);
  const std::size_t num_models = config.models.size();
  std::vector<bool> bank_needed(config.families.size() * num_models, false);
  std::vector<bool> cold_needed(config.families.size() * graphs, false);
  for (const std::size_t unit : units) {
    const CellKey& cell = cells[unit / graphs];
    bank_needed[cell.train * num_models + cell.model] = true;
    cold_needed[cell.eval * graphs + unit % graphs] = true;
  }

  UnitInputs inputs;
  inputs.banks.resize(bank_needed.size());
  for (std::size_t f = 0; f < config.families.size(); ++f) {
    bool family_needed = false;
    for (std::size_t m = 0; m < num_models; ++m) {
      family_needed = family_needed || bank_needed[f * num_models + m];
    }
    if (!family_needed) continue;
    const ParameterDataset corpus =
        ParameterDataset::generate(transfer_corpus_config(config, f));
    for (std::size_t m = 0; m < num_models; ++m) {
      if (!bank_needed[f * num_models + m]) continue;
      inputs.banks[f * num_models + m] = std::make_unique<ParameterPredictor>(
          train_transfer_bank(corpus, config.models[m]));
      ++inputs.banks_trained;
    }
  }

  std::vector<std::size_t> cold_pairs;
  for (std::size_t pair = 0; pair < cold_needed.size(); ++pair) {
    if (cold_needed[pair]) cold_pairs.push_back(pair);
  }
  inputs.cold.resize(cold_needed.size());
  run_units_in_order(cold_pairs, [&](std::size_t pair, std::size_t) {
    inputs.cold[pair] = compute_cold(config, pair / graphs, pair % graphs);
  });
  return inputs;
}

/// One (cell, instance) unit: the cell's warm arm plus the cold
/// baseline its eval column shares.
TransferUnitStats compute_unit(const TransferConfig& config,
                               const std::vector<CellKey>& cells,
                               const UnitInputs& inputs, std::size_t unit) {
  const std::size_t graphs = static_cast<std::size_t>(config.eval_graphs);
  const CellKey& cell = cells[unit / graphs];
  const std::size_t g = unit % graphs;
  TransferUnitStats u = compute_warm(
      config, *inputs.banks[cell.train * config.models.size() + cell.model],
      unit / graphs, cell.eval, g);
  const ColdStats& base = inputs.cold[cell.eval * graphs + g];
  u.cold_ar = base.ar;
  u.cold_fc = base.fc;
  u.cold_iters = base.iters;
  return u;
}

/// Aggregates the flat per-unit stats into the per-cell matrix rows.
std::vector<TransferCell> aggregate_cells(
    const TransferConfig& config, const std::vector<CellKey>& cells,
    const std::vector<TransferUnitStats>& per_unit) {
  const std::size_t graphs = static_cast<std::size_t>(config.eval_graphs);
  std::vector<TransferCell> rows;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> cold_ar;
    std::vector<double> cold_fc;
    std::vector<double> warm_ar;
    std::vector<double> warm_fc;
    double cold_iters = 0.0;
    double warm_iters = 0.0;
    for (std::size_t g = 0; g < graphs; ++g) {
      const TransferUnitStats& u = per_unit[c * graphs + g];
      cold_ar.push_back(u.cold_ar);
      cold_fc.push_back(u.cold_fc);
      warm_ar.push_back(u.warm_ar);
      warm_fc.push_back(u.warm_fc);
      cold_iters += u.cold_iters;
      warm_iters += u.warm_iters;
    }

    TransferCell row;
    row.train_family = cells[c].train;
    row.eval_family = cells[c].eval;
    row.model = config.models[cells[c].model];
    row.cold_ar_mean = stats::mean(cold_ar);
    row.cold_ar_sd = stats::stddev(cold_ar);
    row.cold_fc_mean = stats::mean(cold_fc);
    row.cold_fc_sd = stats::stddev(cold_fc);
    row.cold_iter_mean = cold_iters / static_cast<double>(graphs);
    row.warm_ar_mean = stats::mean(warm_ar);
    row.warm_ar_sd = stats::stddev(warm_ar);
    row.warm_fc_mean = stats::mean(warm_fc);
    row.warm_fc_sd = stats::stddev(warm_fc);
    row.warm_iter_mean = warm_iters / static_cast<double>(graphs);
    row.ar_delta = row.warm_ar_mean - row.cold_ar_mean;
    row.fc_reduction_percent =
        100.0 * (row.cold_fc_mean - row.warm_fc_mean) / row.cold_fc_mean;
    row.iter_reduction_percent =
        row.cold_iter_mean > 0.0
            ? 100.0 * (row.cold_iter_mean - row.warm_iter_mean) /
                  row.cold_iter_mean
            : 0.0;
    rows.push_back(row);
  }
  return rows;
}

/// The sweep's config key: every knob that can change a single output
/// bit.  Family entries reuse the ensemble config-key tokens, so any
/// family knob change invalidates stale shards.
std::string transfer_config_key(const TransferConfig& config) {
  std::ostringstream os;
  os.precision(17);
  os << "transfer families={";
  for (std::size_t f = 0; f < config.families.size(); ++f) {
    os << (f ? " | " : "") << to_string(config.families[f]);
  }
  os << "} models=";
  for (std::size_t m = 0; m < config.models.size(); ++m) {
    os << (m ? "," : "") << ml::to_string(config.models[m]);
  }
  os << " nodes=" << config.num_nodes
     << " train_graphs=" << config.train_graphs
     << " max_depth=" << config.max_depth
     << " corpus_restarts=" << config.corpus_restarts
     << " eval_graphs=" << config.eval_graphs
     << " target_depth=" << config.target_depth
     << " cold_restarts=" << config.cold_restarts
     << " warm_repeats=" << config.warm_repeats
     << " optimizer=" << optim::to_string(config.optimizer)
     << " ftol=" << config.options.ftol << " xtol=" << config.options.xtol
     << " gtol=" << config.options.gtol
     << " fd_step=" << config.options.fd_step
     << " rho_begin=" << config.options.rho_begin
     << " rho_end=" << config.options.rho_end
     << " max_evals=" << config.options.max_evaluations
     << " max_iters=" << config.options.max_iterations
     << " seed=" << config.seed << ' ' << to_string(config.eval);
  return os.str();
}

/// Shard-file codec of the transfer sweep (core/sharded_run.hpp): one
/// (cell, instance) unit's cold and warm arms per line.
struct TransferCodec {
  using Record = TransferUnitStats;
  static constexpr const char* kHeader = "qaoaml-transfer-shard-v1";
  static constexpr const char* kStem = "transfer";

  const TransferConfig& config;

  std::string config_line(const ShardSpec& shard) const {
    std::ostringstream os;
    os << "config " << transfer_config_key(config) << " shard=" << shard.index
       << '/' << shard.count;
    return os.str();
  }
  static void write(std::ostream& os, const TransferUnitStats& u) {
    os << ' ' << u.cold_ar << ' ' << u.cold_fc << ' ' << u.cold_iters << ' '
       << u.warm_ar << ' ' << u.warm_fc << ' ' << u.warm_iters;
  }
  static void read(std::istream& is, std::size_t, TransferUnitStats& u) {
    is >> u.cold_ar >> u.cold_fc >> u.cold_iters >> u.warm_ar >> u.warm_fc >>
        u.warm_iters;
  }
};

}  // namespace

void validate(const TransferConfig& config) {
  require(!config.families.empty(), "TransferConfig: need >= 1 family");
  require(!config.models.empty(), "TransferConfig: need >= 1 model");
  require(config.num_nodes >= 1 && config.num_nodes <= 30,
          "TransferConfig: num_nodes out of range [1, 30]");
  for (const EnsembleConfig& family : config.families) {
    validate(family, config.num_nodes);
  }
  // >= 2 train graphs: the deepest angle's training set has one row per
  // graph, and every model needs at least two samples to fit.
  require(config.train_graphs >= 2, "TransferConfig: need >= 2 train graphs");
  require(config.max_depth >= 2,
          "TransferConfig: max_depth must be >= 2 (depth 1 is the feature "
          "source, not a target)");
  require(config.target_depth >= 2 &&
              config.target_depth <= config.max_depth,
          "TransferConfig: target_depth must lie in [2, max_depth]");
  require(config.corpus_restarts >= 1,
          "TransferConfig: corpus_restarts must be >= 1");
  require(config.eval_graphs >= 1, "TransferConfig: need >= 1 eval graph");
  require(config.cold_restarts >= 1,
          "TransferConfig: cold_restarts must be >= 1");
  require(config.warm_repeats >= 1,
          "TransferConfig: warm_repeats must be >= 1");
}

DatasetConfig transfer_corpus_config(const TransferConfig& config,
                                     std::size_t family) {
  require(family < config.families.size(),
          "transfer_corpus_config: family index out of range");
  DatasetConfig dataset;
  dataset.num_graphs = config.train_graphs;
  dataset.num_nodes = config.num_nodes;
  dataset.ensemble = config.families[family];
  dataset.max_depth = config.max_depth;
  dataset.restarts = config.corpus_restarts;
  dataset.optimizer = config.optimizer;
  dataset.options = config.options;
  dataset.seed = config.seed;
  return dataset;
}

graph::Graph transfer_eval_instance(const TransferConfig& config,
                                    std::size_t family, std::size_t index) {
  require(family < config.families.size(),
          "transfer_eval_instance: family index out of range");
  Rng rng(mix_seed(config.seed, kEvalSalt, family, index));
  graph::Graph problem =
      sample_graph(config.families[family], config.num_nodes, rng);
  int attempts = 0;
  while (problem.num_edges() == 0) {
    // An edgeless instance has MaxCut 0 and no defined approximation
    // ratio; resample (terminates for every family validate() accepts,
    // the cap mirrors instance_record_tasks' hang guard).
    require(++attempts < 10'000'000,
            "transfer_eval_instance: cannot sample an instance with edges");
    problem = sample_graph(config.families[family], config.num_nodes, rng);
  }
  return problem;
}

ParameterPredictor train_transfer_bank(const ParameterDataset& corpus,
                                       ml::RegressorKind model) {
  PredictorConfig predictor_config;
  predictor_config.model = model;
  ParameterPredictor bank(predictor_config);
  std::vector<std::size_t> all(corpus.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  bank.train(corpus, all);
  return bank;
}

std::vector<TransferCell> run_transfer(const TransferConfig& config) {
  validate(config);
  const std::vector<CellKey> cells = transfer_cells(config);
  // Train every bank and compute every cold baseline, then fan the
  // warm arms out as one wave.
  std::vector<std::size_t> units(cells.size() *
                                 static_cast<std::size_t>(config.eval_graphs));
  std::iota(units.begin(), units.end(), std::size_t{0});
  const UnitInputs inputs = prepare_units(config, cells, units);
  std::vector<TransferUnitStats> per_unit(units.size());
  run_units_in_order(units, [&](std::size_t unit, std::size_t) {
    per_unit[unit] = compute_unit(config, cells, inputs, unit);
  });
  return aggregate_cells(config, cells, per_unit);
}

void write_transfer_report(std::ostream& os, const TransferConfig& config,
                           const std::vector<TransferCell>& cells) {
  os << "qaoaml-transfer-report-v1\n";
  os << "config " << transfer_config_key(config) << '\n';
  os.precision(17);
  for (const TransferCell& c : cells) {
    os << "cell " << c.train_family << ' ' << c.eval_family << ' '
       << ml::to_string(c.model) << ' ' << c.cold_ar_mean << ' '
       << c.cold_ar_sd << ' ' << c.cold_fc_mean << ' ' << c.cold_fc_sd << ' '
       << c.cold_iter_mean << ' ' << c.warm_ar_mean << ' ' << c.warm_ar_sd
       << ' ' << c.warm_fc_mean << ' ' << c.warm_fc_sd << ' '
       << c.warm_iter_mean << ' ' << c.ar_delta << ' '
       << c.fc_reduction_percent << ' ' << c.iter_reduction_percent << '\n';
  }
}

std::string transfer_shard_path(const std::string& directory,
                                const ShardSpec& shard) {
  return sharded_run_path(TransferCodec::kStem, directory, shard);
}

TransferShardReport run_transfer_shard(const TransferConfig& config,
                                       const ShardSpec& shard,
                                       const std::string& directory,
                                       const ShardProgressFn& progress) {
  validate(config);
  const std::vector<CellKey> cells = transfer_cells(config);
  ShardedRun<TransferCodec> run(
      TransferCodec{config}, shard, directory,
      cells.size() * static_cast<std::size_t>(config.eval_graphs), progress);
  const UnitInputs inputs = prepare_units(config, cells, run.pending());
  return TransferShardReport{run.generate([&](std::size_t unit) {
                               return compute_unit(config, cells, inputs,
                                                   unit);
                             }),
                             inputs.banks_trained};
}

std::vector<TransferCell> merge_transfer_shards(const TransferConfig& config,
                                                int shard_count,
                                                const std::string& directory) {
  validate(config);
  const std::vector<CellKey> cells = transfer_cells(config);
  return aggregate_cells(
      config, cells,
      merge_sharded_runs(
          TransferCodec{config}, shard_count, directory,
          cells.size() * static_cast<std::size_t>(config.eval_graphs)));
}

}  // namespace qaoaml::core
