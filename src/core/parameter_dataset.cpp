#include <cmath>
#include "core/parameter_dataset.hpp"

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "core/angles.hpp"
#include "core/corpus_pipeline.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"

namespace qaoaml::core {

double InstanceRecord::gamma_opt(int p, int i) const {
  require(p >= 1 && static_cast<std::size_t>(p) <= optimal_params.size(),
          "InstanceRecord::gamma_opt: depth out of range");
  return gamma_of(optimal_params[static_cast<std::size_t>(p - 1)], i);
}

double InstanceRecord::beta_opt(int p, int i) const {
  require(p >= 1 && static_cast<std::size_t>(p) <= optimal_params.size(),
          "InstanceRecord::beta_opt: depth out of range");
  return beta_of(optimal_params[static_cast<std::size_t>(p - 1)], i);
}

ParameterDataset::ParameterDataset(DatasetConfig config,
                                   std::vector<InstanceRecord> records)
    : config_(std::move(config)), records_(std::move(records)) {}

void validate(const DatasetConfig& config) {
  // A typo'd CLI flag must error instantly — not spin the resample loop
  // (--edge-prob 0), grind through a billion edge draws (--nodes
  // 46342), or clobber a completed shard file before the first unit
  // throws.  The 30-node ceiling is the exact-MaxCut brute force's own
  // limit (O(2^n)), which every record needs for its approximation
  // ratios; 64-bit arithmetic so the complete-graph bound can't
  // overflow int (UB) before firing.
  require(config.num_graphs >= 1, "DatasetConfig: need >= 1 graph");
  require(config.max_depth >= 1, "DatasetConfig: max_depth must be >= 1");
  require(config.num_nodes >= 1 && config.num_nodes <= 30,
          "DatasetConfig: num_nodes out of range [1, 30]");
  validate(config.ensemble, config.num_nodes);
  // Reachability under the *selected family*: an ER resample loop can
  // reach any count up to C(n, 2) when p > 0, but regular/small-world
  // families have a fixed edge count — a min_edges above it would
  // resample forever.
  require(config.min_edges <= 0 ||
              config.min_edges <= max_edges(config.ensemble, config.num_nodes),
          "DatasetConfig: min_edges unreachable under the selected "
          "graph family");
}

namespace {

/// A planned corpus record: the record so far (id, graph, max cut), one
/// instance and one set of drawn inputs per depth, and one run slot per
/// task.
struct RecordRuns {
  DatasetConfig config;
  InstanceRecord record;
  std::vector<MaxCutQaoa> instances;  ///< depth p at [p - 1]
  std::vector<RandomStarts> restarts;
  std::vector<std::uint64_t> ramp_seeds;
  std::vector<std::uint64_t> interp_seeds;  ///< [0] unused: no INTERP at p = 1
  std::vector<QaoaRun> runs;  ///< per depth: the restarts, then the ramp
};

}  // namespace

UnitTasks<InstanceRecord> instance_record_tasks(const DatasetConfig& config,
                                                std::size_t index) {
  validate(config);

  // Per-graph deterministic stream: independent of thread scheduling.
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + index);
  graph::Graph problem = sample_graph(config.ensemble, config.num_nodes, rng);
  int attempts = 0;
  while (static_cast<int>(problem.num_edges()) < config.min_edges) {
    // Terminates with probability 1 for any family that validate()
    // accepted (reachability is checked there per family).  The cap
    // only exists to turn effectively-unreachable configs (e.g.
    // p = 1e-300) into an error instead of a silent hang: it is set so
    // high that any config with a practically generatable expected
    // attempt count (even millions) passes, and hitting it means the
    // config could not have produced a corpus in any usable time.
    require(++attempts < 10'000'000,
            "instance_record_tasks: cannot reach min_edges");
    problem = sample_graph(config.ensemble, config.num_nodes, rng);
  }

  const auto plan = std::make_shared<RecordRuns>();
  plan->config = config;
  InstanceRecord& record = plan->record;
  record.id = static_cast<int>(index);
  record.max_cut = graph::max_cut_brute_force(problem).value;
  record.problem = std::move(problem);
  // Every draw a depth makes, whatever its solves return: so all of
  // them can be made now.  Seed refinements sample too (when
  // configured), with streams drawn only in sampled mode, so exact
  // corpora keep their exact bits.
  const auto draw_seed = [&] { return config.eval.sampled() ? rng() : 0; };
  for (int p = 1; p <= config.max_depth; ++p) {
    plan->instances.emplace_back(record.problem, p);
    plan->restarts.emplace_back(p, config.restarts, config.eval, rng);
    plan->ramp_seeds.push_back(draw_seed());
    plan->interp_seeds.push_back(p >= 2 ? draw_seed() : 0);
  }
  const auto per_depth = static_cast<std::size_t>(config.restarts) + 1;
  plan->runs.resize(static_cast<std::size_t>(config.max_depth) * per_depth);

  return UnitTasks<InstanceRecord>{
      plan->runs.size(),
      [plan, per_depth](std::size_t task) {
        const DatasetConfig& config = plan->config;
        // Deepest depth first: its solves are the longest, and the pool
        // balances best when the short ones come last.
        const std::size_t d = plan->instances.size() - 1 - task / per_depth;
        const std::size_t k = task % per_depth;
        const MaxCutQaoa& instance = plan->instances[d];
        const bool ramp = k + 1 == per_depth;
        plan->runs[d * per_depth + k] = solve_from_seeded(
            instance, config.optimizer,
            ramp ? linear_ramp_angles(instance.depth())
                 : plan->restarts[d].starts[k],
            config.eval,
            ramp ? plan->ramp_seeds[d] : plan->restarts[d].seeds[k],
            config.options);
      },
      [plan, per_depth] {
        const DatasetConfig& config = plan->config;
        InstanceRecord& record = plan->record;
        for (std::size_t d = 0; d < plan->instances.size(); ++d) {
          const auto first =
              plan->runs.begin() + static_cast<std::ptrdiff_t>(d * per_depth);
          MultistartRuns runs = reduce_multistart(std::vector<QaoaRun>(
              std::make_move_iterator(first),
              std::make_move_iterator(first + static_cast<std::ptrdiff_t>(
                                                  per_depth - 1))));
          // Heuristic seeds on top of the random restarts: the linear
          // ramp and the INTERP bootstrap from the depth-(p-1) optimum
          // (Zhou et al., the paper's ref. [5]).  Pure random multistart
          // frequently stalls in shallow local basins at p >= 3, which
          // would corrupt the parameter *trends* the ML model learns
          // from; taking the best of {random..., ramp, interp} keeps the
          // corpus at the true optima without touching the naive
          // Table-I baseline (still pure random).
          const auto consider = [&](QaoaRun run) {
            runs.total_function_calls += run.function_calls;
            // ">= - eps": when a random restart found an exact symmetry
            // copy of the seeded optimum (equal energy up to the
            // optimizer's own ftol resolution), prefer the seeded one —
            // it lives in the canonical pattern basin the ML model
            // learns.
            const double tie_eps =
                1e-4 * std::max(1.0, std::abs(runs.best.expectation));
            if (run.expectation >= runs.best.expectation - tie_eps) {
              runs.best = std::move(run);
            }
          };
          consider(std::move(plan->runs[(d + 1) * per_depth - 1]));
          if (d >= 1) {
            consider(solve_from_seeded(
                plan->instances[d], config.optimizer,
                interp_angles(record.optimal_params[d - 1]), config.eval,
                plan->interp_seeds[d], config.options));
          }
          record.optimal_params.push_back(runs.best.params);
          record.expectation.push_back(runs.best.expectation);
          record.approximation_ratio.push_back(runs.best.approximation_ratio);
          record.generation_fc.push_back(runs.total_function_calls);
        }
        return std::move(record);
      }};
}

ParameterDataset ParameterDataset::generate(const DatasetConfig& config) {
  validate(config);
  return ParameterDataset(config, CorpusPipeline::generate_records(config));
}

std::size_t ParameterDataset::total_parameter_count() const {
  std::size_t total = 0;
  for (const InstanceRecord& record : records_) {
    for (const auto& params : record.optimal_params) total += params.size();
  }
  return total;
}

std::pair<std::vector<std::size_t>, std::vector<std::size_t>>
ParameterDataset::split_indices(double train_fraction, Rng& rng) const {
  require(train_fraction > 0.0 && train_fraction < 1.0,
          "split_indices: fraction must lie in (0, 1)");
  require(records_.size() >= 2, "split_indices: need >= 2 records");
  std::vector<std::size_t> order(records_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::size_t train_count = static_cast<std::size_t>(
      train_fraction * static_cast<double>(order.size()) + 0.5);
  train_count = std::clamp<std::size_t>(train_count, 1, order.size() - 1);
  return {
      std::vector<std::size_t>(order.begin(),
                               order.begin() + static_cast<std::ptrdiff_t>(train_count)),
      std::vector<std::size_t>(order.begin() + static_cast<std::ptrdiff_t>(train_count),
                               order.end())};
}

std::string to_string(const DatasetConfig& config) {
  std::ostringstream os;
  os.precision(17);
  // "gen=4" versions the generation recipe itself (seeding, tie
  // breaking); bumping it invalidates stale disk caches.  Every
  // optimizer option that can change the optima must appear here —
  // this string gates both the benches' corpus cache and the corpus
  // pipeline's shard resume, so an omitted knob would silently resume
  // shards generated under a different recipe.
  os << "gen=4 graphs=" << config.num_graphs << " nodes=" << config.num_nodes
     << ' ' << to_string(config.ensemble)
     << " min_edges=" << config.min_edges << " max_depth=" << config.max_depth
     << " restarts=" << config.restarts
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

namespace detail {

void write_record(std::ostream& os, const InstanceRecord& record) {
  os.precision(17);
  os << "graph " << record.id << ' ' << record.problem.num_nodes() << ' '
     << record.problem.num_edges();
  for (const graph::Edge& e : record.problem.edges()) {
    os << ' ' << e.u << ' ' << e.v << ' ' << e.weight;
  }
  os << '\n';
  for (std::size_t d = 0; d < record.optimal_params.size(); ++d) {
    os << "params " << record.id << ' ' << d + 1 << ' '
       << record.generation_fc[d] << ' ' << record.expectation[d] << ' '
       << record.approximation_ratio[d];
    for (const double v : record.optimal_params[d]) os << ' ' << v;
    os << '\n';
  }
}

bool consume_record_line(const std::string& line,
                         std::vector<InstanceRecord>& records,
                         bool compute_max_cut) {
  std::istringstream ls(line);
  std::string tag;
  ls >> tag;
  if (tag == "graph") {
    InstanceRecord record;
    int nodes = 0;
    std::size_t edges = 0;
    ls >> record.id >> nodes >> edges;
    // Bound counts before allocating: a corrupt byte in a cache/shard
    // file must surface as a malformed-line Error (discard and
    // regenerate), not a multi-GB Graph allocation or a confusing
    // failure deep inside max_cut_brute_force.  30 nodes is the exact
    // MaxCut limit validate() enforces on generation, so no valid file
    // can exceed it.
    require(!ls.fail() && nodes >= 1 && nodes <= 30,
            "ParameterDataset: implausible node count");
    require(edges <= static_cast<std::size_t>(nodes) *
                         static_cast<std::size_t>(nodes - 1) / 2,
            "ParameterDataset: implausible edge count");
    graph::Graph problem(nodes);
    for (std::size_t e = 0; e < edges && !ls.fail(); ++e) {
      int u = 0;
      int v = 0;
      double w = 0.0;
      ls >> u >> v >> w;
      if (ls.fail()) break;  // corrupt edge count: don't spin to `edges`
      problem.add_edge(u, v, w);
    }
    require(!ls.fail(), "ParameterDataset: malformed graph line");
    record.problem = problem;
    if (compute_max_cut) {
      record.max_cut = graph::max_cut_brute_force(problem).value;
    }
    records.push_back(std::move(record));
    return true;
  }
  if (tag == "params") {
    require(!records.empty(), "ParameterDataset: params before graph");
    InstanceRecord& record = records.back();
    int id = 0;
    int p = 0;
    int fc = 0;
    double expectation = 0.0;
    double ar = 0.0;
    ls >> id >> p >> fc >> expectation >> ar;
    require(id == record.id, "ParameterDataset: params id mismatch");
    require(p == static_cast<int>(record.optimal_params.size()) + 1,
            "ParameterDataset: depths out of order");
    std::vector<double> params(num_angles(p));
    for (double& v : params) ls >> v;
    require(!ls.fail(), "ParameterDataset: malformed params line");
    record.optimal_params.push_back(std::move(params));
    record.expectation.push_back(expectation);
    record.approximation_ratio.push_back(ar);
    record.generation_fc.push_back(fc);
    return true;
  }
  return false;
}

}  // namespace detail

void ParameterDataset::save(const std::string& path) const {
  std::ofstream os(path);
  require(os.good(), "ParameterDataset::save: cannot open " + path);
  os << "qaoaml-dataset-v1\n";
  os << "config " << to_string(config_) << '\n';
  for (const InstanceRecord& record : records_) {
    detail::write_record(os, record);
  }
  require(os.good(), "ParameterDataset::save: write failed");
}

ParameterDataset ParameterDataset::load(const std::string& path) {
  std::ifstream is(path);
  require(is.good(), "ParameterDataset::load: cannot open " + path);
  std::string line;
  require(static_cast<bool>(std::getline(is, line)) &&
              line == "qaoaml-dataset-v1",
          "ParameterDataset::load: bad header");
  require(static_cast<bool>(std::getline(is, line)) &&
              line.rfind("config ", 0) == 0,
          "ParameterDataset::load: missing config line");

  DatasetConfig config;  // reconstructed partially; stored string is the key
  std::vector<InstanceRecord> records;
  const std::string config_line = line.substr(7);

  // Parse key=value tokens we understand (enough to recreate the
  // config).  std::sto* throw std::invalid_argument on torn values (a
  // cache killed mid-write); convert to our Error so callers like
  // load_or_generate treat the file as corrupt instead of crashing.
  try {
    std::istringstream cs(config_line);
    std::string token;
    while (cs >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "graphs") config.num_graphs = std::stoi(value);
      else if (key == "nodes") config.num_nodes = std::stoi(value);
      else if (key == "family") config.ensemble.family = family_from_string(value);
      else if (key == "edge_prob") config.ensemble.edge_probability = std::stod(value);
      else if (key == "degree") config.ensemble.degree = std::stoi(value);
      else if (key == "weight")
        config.ensemble.weight = value == "gaussian" ? WeightKind::kGaussian
                                                     : WeightKind::kUniform;
      else if (key == "weight_low") config.ensemble.weight_low = std::stod(value);
      else if (key == "weight_high") config.ensemble.weight_high = std::stod(value);
      else if (key == "weight_mean") config.ensemble.weight_mean = std::stod(value);
      else if (key == "weight_sd") config.ensemble.weight_sd = std::stod(value);
      else if (key == "neighbors") config.ensemble.neighbors = std::stoi(value);
      else if (key == "rewire") config.ensemble.rewire_probability = std::stod(value);
      else if (key == "min_edges") config.min_edges = std::stoi(value);
      else if (key == "max_depth") config.max_depth = std::stoi(value);
      else if (key == "restarts") config.restarts = std::stoi(value);
      else if (key == "optimizer") config.optimizer = optim::optimizer_from_string(value);
      else if (key == "ftol") config.options.ftol = std::stod(value);
      else if (key == "xtol") config.options.xtol = std::stod(value);
      else if (key == "gtol") config.options.gtol = std::stod(value);
      else if (key == "fd_step") config.options.fd_step = std::stod(value);
      else if (key == "rho_begin") config.options.rho_begin = std::stod(value);
      else if (key == "rho_end") config.options.rho_end = std::stod(value);
      else if (key == "max_evals") config.options.max_evaluations = std::stoi(value);
      else if (key == "max_iters") config.options.max_iterations = std::stoi(value);
      else if (key == "seed") config.seed = static_cast<std::uint64_t>(std::stoull(value));
      else if (key == "objective") config.eval.mode = objective_mode_from_string(value);
      else if (key == "shots") config.eval.shots = std::stoi(value);
      else if (key == "avg") config.eval.averaging = std::stoi(value);
      else if (key == "seed_policy") config.eval.seed_policy = seed_policy_from_string(value);
      else if (key == "mseed") config.eval.seed = static_cast<std::uint64_t>(std::stoull(value));
    }
  } catch (const std::exception&) {
    throw InvalidArgument("ParameterDataset::load: malformed config line: " +
                          config_line);
  }

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (!detail::consume_record_line(line, records)) {
      throw InvalidArgument("ParameterDataset::load: unknown tag in: " + line);
    }
  }
  ParameterDataset dataset(config, std::move(records));
  dataset.source_key_ = config_line;
  return dataset;
}

ParameterDataset ParameterDataset::load_or_generate(
    const DatasetConfig& config, const std::string& path) {
  {
    std::ifstream probe(path);
    if (probe.good()) {
      try {
        ParameterDataset cached = load(path);
        // Compare the file's literal config line, not a re-derived
        // to_string(cached.config()): the latter would re-emit the
        // current code's "gen=N" token and defeat recipe-version bumps.
        if (cached.source_key() == to_string(config)) return cached;
      } catch (const std::exception&) {
        // Fall through to regeneration on any parse problem — including
        // non-Error exceptions a corrupt file can provoke (bad_alloc,
        // length_error from garbage counts).
      }
    }
  }
  ParameterDataset fresh = generate(config);
  try {
    fresh.save(path);
  } catch (const Error&) {
    // Cache write failure is non-fatal (e.g. read-only directory).
  }
  return fresh;
}

}  // namespace qaoaml::core
