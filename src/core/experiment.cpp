#include "core/experiment.hpp"

#include <memory>
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

/// One (cell, graph) unit's runs, planned: the naive random-init runs
/// and the two-level repeats with all their random inputs drawn, and
/// one (AR, FC) slot per run.
struct UnitRuns {
  MaxCutQaoa instance;  ///< the naive arm's, at the target depth
  TwoLevelConfig two_level;
  std::vector<RandomStarts> naive;
  std::vector<TwoLevelDraws> ml;
  std::vector<double> naive_ar, naive_fc, ml_ar, ml_fc;
};

/// Plans one (cell, graph) unit: one task per naive run and per ML
/// repeat.  Pure function of (dataset, config, unit): the RNG stream is
/// keyed by (seed, graph id, depth, optimizer) only, and every run's
/// inputs are drawn from it here, in the order the runs would consume
/// them one after another — so results are bit-identical for every
/// thread count, shard layout and scheduling order, the same purity
/// contract corpus units have, which is what makes the Table-I sweep
/// shardable at all.
UnitTasks<GraphStats> plan_unit(const ParameterDataset& dataset,
                                const std::vector<std::size_t>& test_records,
                                const ParameterPredictor& predictor,
                                const ExperimentConfig& config,
                                const std::vector<Cell>& cells,
                                std::size_t unit) {
  const std::size_t graphs = test_records.size();
  const Cell& cell = cells[unit / graphs];
  const InstanceRecord& record =
      dataset.records()[test_records[unit % graphs]];
  Rng rng(config.seed ^
          (static_cast<std::uint64_t>(record.id) << 32) ^
          (static_cast<std::uint64_t>(cell.target_depth) << 8) ^
          static_cast<std::uint64_t>(cell.optimizer));

  TwoLevelConfig two_level;
  two_level.optimizer = cell.optimizer;
  two_level.options = config.options;
  two_level.eval = config.eval;
  const auto naive = static_cast<std::size_t>(config.naive_runs);
  const auto ml = static_cast<std::size_t>(config.ml_repeats);
  const auto runs = std::make_shared<UnitRuns>(UnitRuns{
      MaxCutQaoa(record.problem, cell.target_depth), two_level, {}, {},
      std::vector<double>(naive), std::vector<double>(naive),
      std::vector<double>(ml), std::vector<double>(ml)});
  for (std::size_t run = 0; run < naive; ++run) {
    runs->naive.emplace_back(cell.target_depth, 1, config.eval, rng);
  }
  for (std::size_t run = 0; run < ml; ++run) {
    runs->ml.emplace_back(two_level, rng);
  }

  return UnitTasks<GraphStats>{
      naive + ml,
      [runs, naive, &predictor](std::size_t task) {
        UnitRuns& u = *runs;
        if (task < naive) {
          const RandomStarts& draw = u.naive[task];
          const QaoaRun r = solve_from_seeded(
              u.instance, u.two_level.optimizer, draw.starts[0],
              u.two_level.eval, draw.seeds[0], u.two_level.options);
          u.naive_ar[task] = r.approximation_ratio;
          u.naive_fc[task] = static_cast<double>(r.function_calls);
        } else {
          const std::size_t repeat = task - naive;
          const AcceleratedRun r =
              solve_two_level(u.instance.problem_graph(), u.instance.depth(),
                              predictor, u.two_level, u.ml[repeat]);
          u.ml_ar[repeat] = r.final.approximation_ratio;
          u.ml_fc[repeat] = static_cast<double>(r.total_function_calls);
        }
      },
      [runs] {
        return GraphStats{stats::mean(runs->naive_ar),
                          stats::mean(runs->naive_fc),
                          stats::mean(runs->ml_ar), stats::mean(runs->ml_fc)};
      }};
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

  // Flatten the sweep into (cell, graph) units and dispatch their runs
  // as ONE asynchronous wave: no barrier between table cells, and no
  // unit's runs wait on each other, so one slow cell (Nelder-Mead at the
  // deepest depth) cannot idle the pool.  Each unit's inputs come
  // from its own (seed, graph id, depth, optimizer) stream, so the
  // scheduling changes no reported number.
  const std::vector<Cell> cells = sweep_cells(config);
  const std::size_t graphs = test_records.size();
  std::vector<GraphStats> per_unit(cells.size() * graphs);

  std::vector<std::size_t> units(per_unit.size());
  std::iota(units.begin(), units.end(), std::size_t{0});
  run_units_in_order(units, [&](std::size_t unit, std::size_t) {
    return store_result(
        plan_unit(dataset, test_records, predictor, config, cells, unit),
        per_unit[unit]);
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
    return plan_unit(dataset, test_records, predictor, config, cells, unit);
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
