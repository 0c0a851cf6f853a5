// End-to-end integration tests: the full paper pipeline in miniature —
// data generation -> feature extraction -> model training -> two-level
// acceleration -> Table-I-style aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/two_level_solver.hpp"
#include "ml/metrics.hpp"
#include "stats/correlation.hpp"

namespace qaoaml::core {
namespace {

/// One shared mini-corpus for the whole file (generation is the slow part).
const ParameterDataset& corpus() {
  static const ParameterDataset ds = [] {
    DatasetConfig config;
    config.num_graphs = 16;
    config.max_depth = 4;
    config.restarts = 8;
    config.seed = 31415;
    return ParameterDataset::generate(config);
  }();
  return ds;
}

struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

Split split_20_80() {
  Rng rng(1);
  Split s;
  auto [train, test] = corpus().split_indices(0.25, rng);
  s.train = std::move(train);
  s.test = std::move(test);
  return s;
}

TEST(Pipeline, EndToEndReducesFunctionCalls) {
  const Split split = split_20_80();
  ParameterPredictor predictor;
  predictor.train(corpus(), split.train);

  ExperimentConfig config;
  config.optimizers = {optim::OptimizerKind::kLbfgsb,
                       optim::OptimizerKind::kCobyla};
  config.target_depths = {3, 4};
  config.naive_runs = 4;
  config.ml_repeats = 2;
  config.seed = 99;
  const std::vector<TableRow> rows =
      run_table1(corpus(), split.test, predictor, config);

  ASSERT_EQ(rows.size(), 4u);
  // The paper's headline: positive average FC reduction.
  EXPECT_GT(average_fc_reduction(rows), 0.0);
  // AR must not collapse under ML initialization.
  for (const TableRow& row : rows) {
    EXPECT_GT(row.ml_ar_mean, row.naive_ar_mean - 0.05);
  }
}

TEST(Pipeline, ReductionGrowsWithDepthForGradientOptimizer) {
  // Table I pattern: the FC saving is more pronounced at larger target
  // depth (naive cost grows with p, the warm-started cost grows slower).
  const Split split = split_20_80();
  ParameterPredictor predictor;
  predictor.train(corpus(), split.train);

  ExperimentConfig config;
  config.optimizers = {optim::OptimizerKind::kLbfgsb};
  config.target_depths = {2, 4};
  config.naive_runs = 4;
  config.ml_repeats = 2;
  config.seed = 7;
  const std::vector<TableRow> rows =
      run_table1(corpus(), split.test, predictor, config);
  ASSERT_EQ(rows.size(), 2u);
  // Depth 4 should save at least as much (with generous slack for the
  // small sample).
  EXPECT_GT(rows[1].fc_reduction_percent, rows[0].fc_reduction_percent - 15.0);
}

TEST(Pipeline, DatasetRoundTripFeedsIdenticalPredictor) {
  const std::string path = ::testing::TempDir() + "/qaoaml_integ_ds.txt";
  corpus().save(path);
  const ParameterDataset loaded = ParameterDataset::load(path);

  const Split split = split_20_80();
  ParameterPredictor from_memory;
  from_memory.train(corpus(), split.train);
  ParameterPredictor from_disk;
  from_disk.train(loaded, split.train);

  const InstanceRecord& r = corpus().records()[split.test[0]];
  const std::vector<double> a =
      from_memory.predict(r.gamma_opt(1, 1), r.beta_opt(1, 1), 3);
  const std::vector<double> b =
      from_disk.predict(r.gamma_opt(1, 1), r.beta_opt(1, 1), 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_NEAR(a[k], b[k], 1e-9);
  std::remove(path.c_str());
}

TEST(Pipeline, PredictorGeneralizesAcrossTrainTestBoundary) {
  // Fig. 6 in miniature: mean absolute percent error of the predictions
  // on held-out graphs stays moderate at low depth.
  const Split split = split_20_80();
  ParameterPredictor predictor;
  predictor.train(corpus(), split.train);

  std::vector<double> truth;
  std::vector<double> pred;
  for (const std::size_t t : split.test) {
    const InstanceRecord& r = corpus().records()[t];
    const std::vector<double> p2 =
        predictor.predict(r.gamma_opt(1, 1), r.beta_opt(1, 1), 2);
    for (std::size_t k = 0; k < p2.size(); ++k) {
      truth.push_back(r.optimal_params[1][k]);
      pred.push_back(p2[k]);
    }
  }
  EXPECT_LT(ml::mae(truth, pred), 0.5);
}

TEST(Pipeline, CorrelationSignsMatchFig5) {
  // gamma1(p=1) and beta1(p=1) correlate positively with their
  // deeper-instance counterparts (Fig. 5's diagonal-ish entries).
  std::vector<double> g1_p1;
  std::vector<double> g1_p3;
  std::vector<double> b1_p1;
  std::vector<double> b1_p3;
  for (const InstanceRecord& r : corpus().records()) {
    g1_p1.push_back(r.gamma_opt(1, 1));
    g1_p3.push_back(r.gamma_opt(3, 1));
    b1_p1.push_back(r.beta_opt(1, 1));
    b1_p3.push_back(r.beta_opt(3, 1));
  }
  EXPECT_GT(stats::pearson(g1_p1, g1_p3), 0.0);
  EXPECT_GT(stats::pearson(b1_p1, b1_p3), 0.0);
}

TEST(Pipeline, ThreeLevelMatchesTwoLevelQuality) {
  const Split split = split_20_80();
  ParameterPredictor coarse;
  coarse.train(corpus(), split.train);
  PredictorConfig fine_config;
  fine_config.intermediate_depth = 2;
  ParameterPredictor fine(fine_config);
  fine.train(corpus(), split.train);

  TwoLevelConfig config;
  Rng rng(17);
  double two_ar = 0.0;
  double three_ar = 0.0;
  for (const std::size_t t : split.test) {
    const graph::Graph& g = corpus().records()[t].problem;
    two_ar += solve_two_level(g, 4, coarse, config, rng)
                  .final.approximation_ratio;
    three_ar += solve_three_level(g, 4, coarse, fine, config, rng)
                    .final.approximation_ratio;
  }
  // Both flows land in the same quality band.
  EXPECT_NEAR(two_ar, three_ar,
              0.1 * static_cast<double>(split.test.size()));
}

}  // namespace
}  // namespace qaoaml::core
