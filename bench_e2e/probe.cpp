// The traced probe.  Table-I and corpus units hide their individual
// solves inside the pipelines, so a traced run rebuilds both arms of a
// Table-I unit from public calls — random_angles, an objective made of
// MaxCutQaoa::state_into plus Statevector::expectation_diagonal,
// optim::minimize, canonicalize_angles, ParameterPredictor::predict and
// the warm-start options of TwoLevelConfig — with a span around each
// call, then checks every solve bit for bit against the library's own
// solve_random_init / solve_two_level on the same Rng state.  A mismatch
// means the spans no longer describe what the library does.
#include <algorithm>

#include "bench_e2e.hpp"
#include "core/angles.hpp"
#include "core/two_level_solver.hpp"
#include "graph/generators.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace qaoaml;

struct ArmResult {
  int nfev = 0;
  int nit = 0;
  double fun = 0.0;
  std::vector<double> params;
  int level1_nfev = 0;                // ML arm only
  std::vector<double> level1_params;  // ML arm only
};

optim::OptimResult traced_minimize(const core::MaxCutQaoa& instance,
                                   optim::OptimizerKind optimizer,
                                   std::span<const double> x0,
                                   const optim::Options& options) {
  quantum::Statevector workspace =
      quantum::Statevector::uniform(instance.num_qubits());
  const std::vector<double>& diagonal = instance.hamiltonian().diagonal();
  const optim::ObjectiveFn objective = [&](std::span<const double> params) {
    {
      trace::Span sweep("sim.sweep");
      instance.state_into(workspace, params);
    }
    trace::Span expect("sim.expect");
    return -workspace.expectation_diagonal(diagonal);
  };
  trace::Span span("optim.minimize");
  return optim::minimize(optimizer, objective, x0, instance.bounds(), options);
}

std::vector<double> traced_canonical(const core::MaxCutQaoa& instance,
                                     std::vector<double> x) {
  trace::Span span("angles.canonicalize");
  return instance.has_integer_spectrum() ? core::canonicalize_angles(x) : x;
}

std::vector<double> traced_random(int depth, Rng& rng) {
  trace::Span span("angles.random");
  return core::random_angles(depth, rng);
}

core::MaxCutQaoa traced_instance(const graph::Graph& g, int depth) {
  trace::Span span("core.instance");
  return core::MaxCutQaoa(g, depth);
}

/// solve_random_init, call by call.
ArmResult naive_arm(const graph::Graph& g, int depth,
                    optim::OptimizerKind optimizer,
                    const optim::Options& options, Rng& rng) {
  trace::Span span("solve.naive");
  const core::MaxCutQaoa instance = traced_instance(g, depth);
  const std::vector<double> x0 = traced_random(depth, rng);
  optim::OptimResult result = traced_minimize(instance, optimizer, x0, options);
  ArmResult out;
  out.nfev = result.nfev;
  out.nit = result.nit;
  out.fun = result.fun;
  out.params = traced_canonical(instance, std::move(result.x));
  return out;
}

/// solve_two_level, call by call.
ArmResult ml_arm(const graph::Graph& g, int depth,
                 const core::ParameterPredictor& predictor,
                 const core::TwoLevelConfig& config, Rng& rng) {
  trace::Span span("solve.ml");
  const core::MaxCutQaoa level1 = traced_instance(g, 1);
  const std::vector<double> x0 = traced_random(1, rng);
  optim::OptimResult first =
      traced_minimize(level1, config.optimizer, x0, config.options);
  ArmResult out;
  out.level1_nfev = first.nfev;
  out.level1_params = traced_canonical(level1, std::move(first.x));

  std::vector<double> init;
  {
    trace::Span predict("ml.predict");
    init = predictor.predict(core::gamma_of(out.level1_params, 1),
                             core::beta_of(out.level1_params, 1), depth);
  }
  const core::MaxCutQaoa target = traced_instance(g, depth);
  optim::Options warm = config.options;
  warm.rho_begin = std::min(warm.rho_begin, config.warm_rho_begin);
  optim::OptimResult final_run =
      traced_minimize(target, config.optimizer, init, warm);
  out.nfev = first.nfev + final_run.nfev;
  out.nit = first.nit + final_run.nit;
  out.fun = final_run.fun;
  out.params = traced_canonical(target, std::move(final_run.x));
  return out;
}

struct Arm {
  bool ml = false;
  int cell = 0;
  graph::Graph graph{1};
  int depth = 2;
  optim::OptimizerKind optimizer = optim::OptimizerKind::kLbfgsb;
  Rng rng_before;
  Rng rng_after;
  ArmResult result;
};

bool matches_library(Arm& arm, const core::ParameterPredictor& predictor) {
  Rng rng = arm.rng_before;
  bool ok = false;
  if (arm.ml) {
    core::TwoLevelConfig config;
    config.optimizer = arm.optimizer;
    const core::AcceleratedRun lib =
        core::solve_two_level(arm.graph, arm.depth, predictor, config, rng);
    ok = lib.level1.function_calls == arm.result.level1_nfev &&
         same_bits(lib.level1.params, arm.result.level1_params) &&
         lib.total_function_calls == arm.result.nfev &&
         same_bits(lib.final.expectation, -arm.result.fun) &&
         same_bits(lib.final.params, arm.result.params);
  } else {
    const core::MaxCutQaoa instance(arm.graph, arm.depth);
    const core::QaoaRun lib =
        core::solve_random_init(instance, arm.optimizer, rng, optim::Options{});
    ok = lib.function_calls == arm.result.nfev &&
         same_bits(lib.expectation, -arm.result.fun) &&
         same_bits(lib.params, arm.result.params);
  }
  // Both sides must also leave the caller's Rng in the same state.
  return ok && rng() == arm.rng_after();
}

}  // namespace

void run_probe(const Options& options,
               const core::ParameterPredictor& predictor, Report& report) {
  constexpr int kNaiveRuns = 2;
  std::vector<Arm> arms;
  {
    const TraceScope recording(true);
    trace::Span root("probe", 0);
    Rng graphs(mix(options.seed, 0x9E0BE));
    int cell = 0;
    for (const optim::OptimizerKind optimizer : optim::all_optimizers()) {
      for (int depth = 2; depth <= 5; ++depth, ++cell) {
        graph::Graph g = graph::erdos_renyi_gnp(8, 0.5, graphs);
        while (g.num_edges() == 0) g = graph::erdos_renyi_gnp(8, 0.5, graphs);
        Rng rng(mix(options.seed, 0xCE11 + static_cast<std::uint64_t>(cell)));
        trace::Span cell_span("probe.cell", static_cast<std::uint64_t>(cell));
        for (int run = 0; run <= kNaiveRuns; ++run) {
          Arm arm;
          arm.ml = run == kNaiveRuns;
          arm.cell = cell;
          arm.graph = g;
          arm.depth = depth;
          arm.optimizer = optimizer;
          arm.rng_before = rng;
          if (arm.ml) {
            core::TwoLevelConfig config;
            config.optimizer = optimizer;
            arm.result = ml_arm(g, depth, predictor, config, rng);
          } else {
            arm.result = naive_arm(g, depth, optimizer, optim::Options{}, rng);
          }
          arm.rng_after = rng;
          arms.push_back(std::move(arm));
        }
      }
    }
  }

  // Checked after the probe's root span closes, so the reference solves
  // stay out of the probe's wall time and out of every layer metric.
  long nfev_naive = 0;
  long nfev_ml = 0;
  long nit = 0;
  int mismatches = 0;
  for (Arm& arm : arms) {
    (arm.ml ? nfev_ml : nfev_naive) += arm.result.nfev;
    nit += arm.result.nit;
    if (!matches_library(arm, predictor)) ++mismatches;
  }
  report.attempted += static_cast<std::int64_t>(arms.size());
  report.failed += mismatches;
  report.check(mismatches == 0,
               "probe: " + std::to_string(mismatches) + " of " +
                   std::to_string(arms.size()) +
                   " solves differ from the library");

  const std::vector<trace::Record> spans = trace::collect();
  const std::uint64_t root_id = trace::last_id(spans, "probe");
  const auto stats = trace::stats_under(spans, root_id);
  auto get = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? trace::NameStats{} : it->second;
  };
  const trace::NameStats sweep = get("sim.sweep");
  const trace::NameStats expect = get("sim.expect");
  const trace::NameStats predict = get("ml.predict");
  const double calls = static_cast<double>(std::max<std::size_t>(sweep.count, 1));
  report.add("sim.calls", static_cast<double>(sweep.count), "count");
  report.add("sim.sweep_us", sweep.total_us / calls, "us");
  report.add("sim.expect_us", expect.total_us / calls, "us");
  report.add("optim.self_us", get("optim.minimize").self_us / calls, "us");
  report.add("optim.nfev.naive", static_cast<double>(nfev_naive), "count");
  report.add("optim.nfev.ml", static_cast<double>(nfev_ml), "count");
  report.add("optim.nit", static_cast<double>(nit), "count");
  report.add("ml.predict_us",
             predict.total_us / static_cast<double>(std::max<std::size_t>(predict.count, 1)),
             "us");

  // Layer spans are everything but the probe's own grouping spans; their
  // self times should account for the probe's wall time.
  double layer_self_us = 0.0;
  for (const auto& [name, s] : stats) {
    if (name != "probe" && name != "probe.cell" && name != "solve.naive" &&
        name != "solve.ml") {
      layer_self_us += s.self_us;
    }
  }
  const double wall_us = get("probe").total_us;
  report.add("probe.cover_pct", wall_us > 0.0 ? 100.0 * layer_self_us / wall_us : 0.0,
             "%");
}

}  // namespace e2e
