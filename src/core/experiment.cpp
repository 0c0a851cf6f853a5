#include "core/experiment.hpp"

#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace qaoaml::core {
namespace {

/// Per-graph means for one (optimizer, depth) cell — the sharded
/// sweep's unit payload.
struct GraphStats {
  double naive_ar = 0.0;
  double naive_fc = 0.0;
  double ml_ar = 0.0;
  double ml_fc = 0.0;
};

/// One (optimizer, depth) cell of the sweep.
struct Cell {
  optim::OptimizerKind optimizer;
  int target_depth;
};

std::vector<Cell> sweep_cells(const ExperimentConfig& config) {
  std::vector<Cell> cells;
  for (const optim::OptimizerKind optimizer : config.optimizers) {
    for (const int depth : config.target_depths) {
      cells.push_back(Cell{optimizer, depth});
    }
  }
  return cells;
}

void validate_sweep(const ParameterDataset& dataset,
                    const std::vector<std::size_t>& test_records,
                    const ExperimentConfig& config) {
  require(!test_records.empty(), "run_table1: empty test set");
  require(config.naive_runs >= 1 && config.ml_repeats >= 1,
          "run_table1: run counts must be >= 1");
  for (const std::size_t t : test_records) {
    require(t < dataset.size(), "run_table1: test record out of range");
  }
}

/// Computes one (cell, graph) unit.  Pure function of (dataset, config,
/// unit): the RNG stream is keyed by (seed, graph id, depth, optimizer)
/// only, so results are bit-identical for every thread count, shard
/// layout and scheduling order — the same purity contract corpus units
/// have, which is what makes the Table-I sweep shardable at all.
GraphStats compute_unit(const ParameterDataset& dataset,
                        const std::vector<std::size_t>& test_records,
                        const ParameterPredictor& predictor,
                        const ExperimentConfig& config,
                        const std::vector<Cell>& cells, std::size_t unit) {
  const std::size_t graphs = test_records.size();
  const Cell& cell = cells[unit / graphs];
  const std::size_t t = unit % graphs;
  const InstanceRecord& record = dataset.records()[test_records[t]];
  // Deterministic per-(cell, graph) stream.
  Rng rng(config.seed ^
          (static_cast<std::uint64_t>(record.id) << 32) ^
          (static_cast<std::uint64_t>(cell.target_depth) << 8) ^
          static_cast<std::uint64_t>(cell.optimizer));

  const MaxCutQaoa instance(record.problem, cell.target_depth);

  // Naive arm: per-run statistics over random initializations.
  std::vector<double> naive_ar;
  std::vector<double> naive_fc;
  for (int run = 0; run < config.naive_runs; ++run) {
    const QaoaRun r = solve_random_init(instance, cell.optimizer, rng,
                                        config.eval, config.options);
    naive_ar.push_back(r.approximation_ratio);
    naive_fc.push_back(static_cast<double>(r.function_calls));
  }

  // ML arm: the two-level flow (level-1 randomness repeats).
  TwoLevelConfig two_level;
  two_level.optimizer = cell.optimizer;
  two_level.options = config.options;
  two_level.eval = config.eval;
  std::vector<double> ml_ar;
  std::vector<double> ml_fc;
  for (int run = 0; run < config.ml_repeats; ++run) {
    const AcceleratedRun r = solve_two_level(
        record.problem, cell.target_depth, predictor, two_level, rng);
    ml_ar.push_back(r.final.approximation_ratio);
    ml_fc.push_back(static_cast<double>(r.total_function_calls));
  }

  return GraphStats{stats::mean(naive_ar), stats::mean(naive_fc),
                    stats::mean(ml_ar), stats::mean(ml_fc)};
}

/// Aggregates the flat per-unit stats into the per-cell rows (per-graph
/// statistics first, then mean and SD across graphs).
std::vector<TableRow> aggregate_rows(const std::vector<Cell>& cells,
                                     std::size_t graphs,
                                     const std::vector<GraphStats>& per_unit) {
  std::vector<TableRow> rows;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<double> nar;
    std::vector<double> nfc;
    std::vector<double> mar;
    std::vector<double> mfc;
    for (std::size_t t = 0; t < graphs; ++t) {
      const GraphStats& g = per_unit[c * graphs + t];
      nar.push_back(g.naive_ar);
      nfc.push_back(g.naive_fc);
      mar.push_back(g.ml_ar);
      mfc.push_back(g.ml_fc);
    }

    TableRow row;
    row.optimizer = cells[c].optimizer;
    row.target_depth = cells[c].target_depth;
    row.naive_ar_mean = stats::mean(nar);
    row.naive_ar_sd = stats::stddev(nar);
    row.naive_fc_mean = stats::mean(nfc);
    row.naive_fc_sd = stats::stddev(nfc);
    row.ml_ar_mean = stats::mean(mar);
    row.ml_ar_sd = stats::stddev(mar);
    row.ml_fc_mean = stats::mean(mfc);
    row.ml_fc_sd = stats::stddev(mfc);
    row.fc_reduction_percent =
        100.0 * (row.naive_fc_mean - row.ml_fc_mean) / row.naive_fc_mean;
    rows.push_back(row);
  }
  return rows;
}

/// FNV-1a over the test-record indices: a compact test-set identity for
/// the config line (the full list can be hundreds of entries).
std::uint64_t test_set_hash(const std::vector<std::size_t>& test_records) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::size_t t : test_records) {
    h ^= static_cast<std::uint64_t>(t);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Shard-file codec of the Table-I sweep (core/sharded_run.hpp): one
/// (cell, graph) unit's per-graph means per line.
struct Table1Codec {
  using Record = GraphStats;
  static constexpr const char* kHeader = "qaoaml-table1-shard-v1";
  static constexpr const char* kStem = "table1";

  const ParameterDataset& dataset;
  const std::vector<std::size_t>& test_records;
  const ExperimentConfig& config;

  /// A full-line match is required on resume/merge, so any change of
  /// dataset, test set, sweep shape or optimizer options invalidates
  /// stale shards instead of silently mixing experiments.
  std::string config_line(const ShardSpec& shard) const {
    std::ostringstream os;
    os.precision(17);
    os << "config table1 dataset={" << to_string(dataset.config()) << "}"
       << " tests=" << test_records.size() << ":" << test_set_hash(test_records)
       << " optimizers=";
    for (std::size_t i = 0; i < config.optimizers.size(); ++i) {
      os << (i ? "," : "") << optim::to_string(config.optimizers[i]);
    }
    os << " depths=";
    for (std::size_t i = 0; i < config.target_depths.size(); ++i) {
      os << (i ? "," : "") << config.target_depths[i];
    }
    os << " naive_runs=" << config.naive_runs
       << " ml_repeats=" << config.ml_repeats
       << " ftol=" << config.options.ftol << " xtol=" << config.options.xtol
       << " gtol=" << config.options.gtol
       << " fd_step=" << config.options.fd_step
       << " rho_begin=" << config.options.rho_begin
       << " rho_end=" << config.options.rho_end
       << " max_evals=" << config.options.max_evaluations
       << " max_iters=" << config.options.max_iterations
       << " seed=" << config.seed << ' ' << to_string(config.eval)
       << " shard=" << shard.index << '/'
       << shard.count;
    return os.str();
  }
  static void write(std::ostream& os, const GraphStats& g) {
    os << ' ' << g.naive_ar << ' ' << g.naive_fc << ' ' << g.ml_ar << ' '
       << g.ml_fc;
  }
  static void read(std::istream& is, std::size_t, GraphStats& g) {
    is >> g.naive_ar >> g.naive_fc >> g.ml_ar >> g.ml_fc;
  }
};

}  // namespace

std::vector<TableRow> run_table1(const ParameterDataset& dataset,
                                 const std::vector<std::size_t>& test_records,
                                 const ParameterPredictor& predictor,
                                 const ExperimentConfig& config) {
  require(predictor.trained(), "run_table1: predictor not trained");
  validate_sweep(dataset, test_records, config);

  // Flatten the sweep into (cell, graph) work units and dispatch them
  // through the corpus pipeline's scheduler as ONE asynchronous wave:
  // no barrier between table cells, so a slow straggler in one cell no
  // longer idles the pool while the next cell waits to start.  Each
  // unit's RNG stream depends only on (seed, graph id, depth,
  // optimizer), exactly as before, so the flattening changes scheduling
  // but not a single reported number.
  const std::vector<Cell> cells = sweep_cells(config);
  const std::size_t graphs = test_records.size();
  std::vector<GraphStats> per_unit(cells.size() * graphs);

  std::vector<std::size_t> units(per_unit.size());
  std::iota(units.begin(), units.end(), std::size_t{0});
  run_units_in_order(units, [&](std::size_t unit, std::size_t) {
    per_unit[unit] =
        compute_unit(dataset, test_records, predictor, config, cells, unit);
  });

  return aggregate_rows(cells, graphs, per_unit);
}

double average_fc_reduction(const std::vector<TableRow>& rows) {
  require(!rows.empty(), "average_fc_reduction: no rows");
  double acc = 0.0;
  for (const TableRow& row : rows) acc += row.fc_reduction_percent;
  return acc / static_cast<double>(rows.size());
}

std::string table1_shard_path(const std::string& directory,
                              const ShardSpec& shard) {
  return sharded_run_path(Table1Codec::kStem, directory, shard);
}

Table1ShardReport run_table1_shard(const ParameterDataset& dataset,
                                   const std::vector<std::size_t>& test_records,
                                   const ParameterPredictor& predictor,
                                   const ExperimentConfig& config,
                                   const ShardSpec& shard,
                                   const std::string& directory,
                                   const ShardProgressFn& progress) {
  require(predictor.trained(), "run_table1_shard: predictor not trained");
  validate_sweep(dataset, test_records, config);
  const std::vector<Cell> cells = sweep_cells(config);
  ShardedRun<Table1Codec> run(Table1Codec{dataset, test_records, config},
                              shard, directory,
                              cells.size() * test_records.size(), progress);
  return run.generate([&](std::size_t unit) {
    return compute_unit(dataset, test_records, predictor, config, cells, unit);
  });
}

std::vector<TableRow> merge_table1_shards(
    const ParameterDataset& dataset,
    const std::vector<std::size_t>& test_records,
    const ExperimentConfig& config, int shard_count,
    const std::string& directory) {
  validate_sweep(dataset, test_records, config);
  const std::vector<Cell> cells = sweep_cells(config);
  return aggregate_rows(
      cells, test_records.size(),
      merge_sharded_runs(Table1Codec{dataset, test_records, config},
                         shard_count, directory,
                         cells.size() * test_records.size()));
}

}  // namespace qaoaml::core
