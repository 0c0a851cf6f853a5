// Tests for the ML substrate: datasets, metrics, and the four
// regression families (GPR, LM, RTREE, RSVM).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/gpr.hpp"
#include "ml/linear_regression.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/regression_tree.hpp"
#include "ml/svr.hpp"

namespace qaoaml::ml {
namespace {

/// y = 2 x0 - 3 x1 + 1 + noise.
Dataset linear_data(std::size_t n, double noise, Rng& rng) {
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    data.add({x0, x1}, 2.0 * x0 - 3.0 * x1 + 1.0 + noise * rng.normal());
  }
  return data;
}

/// y = sin(2 x) + noise, a smooth nonlinear target on one feature.
Dataset sine_data(std::size_t n, double noise, Rng& rng) {
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    data.add({x}, std::sin(2.0 * x) + noise * rng.normal());
  }
  return data;
}

TEST(Dataset, AddValidatesArity) {
  Dataset data;
  data.add({1.0, 2.0}, 3.0);
  EXPECT_THROW(data.add({1.0}, 2.0), InvalidArgument);
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.num_features(), 2u);
}

TEST(Dataset, ValidateRejectsEmpty) {
  Dataset data;
  EXPECT_THROW(data.validate(), InvalidArgument);
}

TEST(Dataset, SplitPartitionsAllRows) {
  Rng rng(3);
  const Dataset data = linear_data(50, 0.0, rng);
  const auto [train, test] = train_test_split(data, 0.2, rng);
  EXPECT_EQ(train.size() + test.size(), 50u);
  EXPECT_EQ(train.size(), 10u);
}

TEST(Dataset, SelectRowsExtractsSubset) {
  Rng rng(5);
  const Dataset data = linear_data(10, 0.0, rng);
  const Dataset sub = select_rows(data, {0, 5, 9});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.y[1], data.y[5]);
  EXPECT_THROW(select_rows(data, {99}), InvalidArgument);
}

TEST(Standardizer, ProducesZeroMeanUnitVariance) {
  Rng rng(7);
  const Dataset data = linear_data(200, 0.0, rng);
  Standardizer scaler;
  scaler.fit(data.x);
  const linalg::Matrix scaled = scaler.transform(data.x);
  for (std::size_t c = 0; c < scaled.cols(); ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < scaled.rows(); ++r) mean += scaled(r, c);
    mean /= static_cast<double>(scaled.rows());
    EXPECT_NEAR(mean, 0.0, 1e-10);
  }
}

TEST(Standardizer, HandlesConstantFeature) {
  Dataset data;
  data.add({1.0, 5.0}, 0.0);
  data.add({2.0, 5.0}, 1.0);
  Standardizer scaler;
  scaler.fit(data.x);
  const std::vector<double> row = scaler.transform_row({1.5, 5.0});
  EXPECT_TRUE(std::isfinite(row[1]));
  EXPECT_NEAR(row[1], 0.0, 1e-12);
}

TEST(Metrics, PerfectPredictionScores) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mse(y, y), 0.0);
  EXPECT_DOUBLE_EQ(rmse(y, y), 0.0);
  EXPECT_DOUBLE_EQ(mae(y, y), 0.0);
  EXPECT_DOUBLE_EQ(r2(y, y), 1.0);
}

TEST(Metrics, MeanPredictorHasZeroR2) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  const std::vector<double> pred{2.0, 2.0, 2.0};
  EXPECT_NEAR(r2(y, pred), 0.0, 1e-12);
}

TEST(Metrics, KnownValues) {
  const std::vector<double> y{1.0, 2.0};
  const std::vector<double> p{2.0, 4.0};
  EXPECT_DOUBLE_EQ(mse(y, p), 2.5);
  EXPECT_DOUBLE_EQ(mae(y, p), 1.5);
  EXPECT_DOUBLE_EQ(rmse(y, p), std::sqrt(2.5));
}

TEST(Metrics, AdjustedR2PenalizesFeatures) {
  Rng rng(9);
  std::vector<double> y(20);
  std::vector<double> p(20);
  for (std::size_t i = 0; i < 20; ++i) {
    y[i] = rng.normal();
    p[i] = y[i] + 0.1 * rng.normal();
  }
  EXPECT_LT(adjusted_r2(y, p, 5), r2(y, p));
}

TEST(Metrics, PercentErrorSkipsNearZeroTruth) {
  const std::vector<double> y{0.0, 2.0};
  const std::vector<double> p{5.0, 1.0};
  EXPECT_DOUBLE_EQ(mean_abs_percent_error(y, p), 50.0);
}

TEST(Metrics, ComputeMetricsBundlesAll) {
  const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> p{1.1, 1.9, 3.2, 3.8};
  const MetricReport report = compute_metrics(y, p, 2);
  EXPECT_GT(report.r2, 0.9);
  EXPECT_DOUBLE_EQ(report.rmse, std::sqrt(report.mse));
}

TEST(LinearRegression, RecoversExactCoefficients) {
  Rng rng(11);
  const Dataset data = linear_data(100, 0.0, rng);
  LinearRegression model;
  model.fit(data);
  EXPECT_NEAR(model.intercept(), 1.0, 1e-8);
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-8);
  EXPECT_NEAR(model.weights()[1], -3.0, 1e-8);
  EXPECT_NEAR(model.predict({0.5, 0.5}), 1.0 + 1.0 - 1.5, 1e-8);
}

TEST(LinearRegression, ToleratesNoise) {
  Rng rng(13);
  const Dataset data = linear_data(500, 0.1, rng);
  LinearRegression model;
  model.fit(data);
  EXPECT_NEAR(model.weights()[0], 2.0, 0.05);
  EXPECT_NEAR(model.weights()[1], -3.0, 0.05);
}

TEST(LinearRegression, RidgeShrinksWeights) {
  Rng rng(17);
  const Dataset data = linear_data(50, 0.2, rng);
  LinearRegression plain;
  plain.fit(data);
  LinearRegression ridge(100.0);
  ridge.fit(data);
  EXPECT_LT(std::abs(ridge.weights()[0]), std::abs(plain.weights()[0]));
}

TEST(LinearRegression, SurvivesConstantFeature) {
  // A constant feature duplicates the intercept; the fit must fall back
  // to ridge instead of throwing (this arises for the deepest-stage
  // angle models whose only target depth is the corpus maximum).
  Dataset data;
  for (int i = 0; i < 12; ++i) {
    data.add({static_cast<double>(i), 6.0}, 2.0 * i + 1.0);
  }
  LinearRegression model;
  ASSERT_NO_THROW(model.fit(data));
  EXPECT_NEAR(model.predict({5.0, 6.0}), 11.0, 0.2);
}

TEST(LinearRegression, PredictBeforeFitThrows) {
  const LinearRegression model;
  EXPECT_THROW(model.predict({1.0}), InvalidArgument);
  EXPECT_FALSE(model.fitted());
}

TEST(Gpr, InterpolatesNoiseFreeData) {
  Rng rng(19);
  const Dataset data = sine_data(40, 0.0, rng);
  GPRegressor model;
  model.fit(data);
  // Near-interpolation at the training points.
  double worst = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    worst = std::max(worst, std::abs(model.predict(data.x.row(i)) - data.y[i]));
  }
  EXPECT_LT(worst, 0.05);
}

TEST(Gpr, GeneralizesSmoothFunction) {
  Rng rng(23);
  const Dataset train = sine_data(60, 0.02, rng);
  GPRegressor model;
  model.fit(train);
  double err = 0.0;
  for (double x = -2.5; x <= 2.5; x += 0.25) {
    err = std::max(err, std::abs(model.predict({x}) - std::sin(2.0 * x)));
  }
  EXPECT_LT(err, 0.2);
}

TEST(Gpr, UncertaintyGrowsAwayFromData) {
  Rng rng(29);
  Dataset data;
  for (int i = 0; i < 20; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    data.add({x}, x * x);
  }
  GPRegressor model;
  model.fit(data);
  const auto near = model.predict_with_uncertainty({0.0});
  const auto far = model.predict_with_uncertainty({6.0});
  EXPECT_GT(far.stddev, near.stddev);
}

TEST(Gpr, LogMarginalLikelihoodIsFinite) {
  Rng rng(31);
  const Dataset data = sine_data(30, 0.05, rng);
  GPRegressor model;
  model.fit(data);
  EXPECT_TRUE(std::isfinite(model.log_marginal_likelihood()));
  EXPECT_GT(model.signal_stddev(), 0.0);
  EXPECT_GT(model.noise_stddev(), 0.0);
}

TEST(Gpr, RequiresTwoSamples) {
  Dataset tiny;
  tiny.add({1.0}, 2.0);
  GPRegressor model;
  EXPECT_THROW(model.fit(tiny), InvalidArgument);
}

TEST(RegressionTree, FitsPiecewiseConstantExactly) {
  Dataset data;
  for (double x = 0.0; x < 1.0; x += 0.05) data.add({x}, 1.0);
  for (double x = 1.0; x < 2.0; x += 0.05) data.add({x}, 5.0);
  RegressionTree tree;
  tree.fit(data);
  EXPECT_NEAR(tree.predict({0.5}), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict({1.5}), 5.0, 1e-9);
  EXPECT_GE(tree.leaf_count(), 2u);
}

TEST(RegressionTree, RespectsMaxDepth) {
  Rng rng(37);
  const Dataset data = sine_data(200, 0.0, rng);
  TreeConfig config;
  config.max_depth = 3;
  RegressionTree tree(config);
  tree.fit(data);
  EXPECT_LE(tree.depth(), 3);
}

TEST(RegressionTree, RespectsMinLeafSize) {
  Rng rng(41);
  const Dataset data = sine_data(100, 0.0, rng);
  TreeConfig config;
  config.min_samples_leaf = 20;
  RegressionTree tree(config);
  tree.fit(data);
  EXPECT_LE(tree.leaf_count(), 5u);  // 100 / 20
}

TEST(RegressionTree, SingleLeafPredictsMean) {
  Dataset data;
  data.add({0.0}, 2.0);
  data.add({1.0}, 4.0);
  TreeConfig config;
  config.max_depth = 1;
  RegressionTree tree(config);
  tree.fit(data);
  EXPECT_DOUBLE_EQ(tree.predict({0.5}), 3.0);
  EXPECT_EQ(tree.depth(), 1);
}

TEST(Svr, FitsLinearTrend) {
  Rng rng(43);
  const Dataset data = linear_data(80, 0.02, rng);
  SVRegressor model;
  model.fit(data);
  double err = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double x0 = rng.uniform(-1.5, 1.5);
    const double x1 = rng.uniform(-1.5, 1.5);
    err = std::max(err,
                   std::abs(model.predict({x0, x1}) -
                            (2.0 * x0 - 3.0 * x1 + 1.0)));
  }
  EXPECT_LT(err, 0.8);
}

TEST(Svr, FitsSmoothNonlinearFunction) {
  Rng rng(47);
  const Dataset data = sine_data(120, 0.02, rng);
  SVRegressor model;
  model.fit(data);
  double err = 0.0;
  for (double x = -2.5; x <= 2.5; x += 0.25) {
    err = std::max(err, std::abs(model.predict({x}) - std::sin(2.0 * x)));
  }
  EXPECT_LT(err, 0.35);
}

TEST(Svr, EpsilonTubeSparsifiesSolution) {
  Rng rng(53);
  const Dataset data = sine_data(100, 0.0, rng);
  SvrConfig wide;
  wide.epsilon = 0.5;
  SVRegressor sparse(wide);
  sparse.fit(data);
  SvrConfig narrow;
  narrow.epsilon = 1e-4;
  SVRegressor dense(narrow);
  dense.fit(data);
  EXPECT_LT(sparse.support_vector_count(), dense.support_vector_count());
}

TEST(Svr, ValidatesConfig) {
  SvrConfig bad;
  bad.c = -1.0;
  EXPECT_THROW(SVRegressor{bad}, InvalidArgument);
}

/// All four families expose the Regressor interface and learn the same
/// easy linear target.
class AllRegressorsTest : public ::testing::TestWithParam<RegressorKind> {};

TEST_P(AllRegressorsTest, LearnsLinearTargetReasonably) {
  Rng rng(59);
  const Dataset train = linear_data(150, 0.05, rng);
  const Dataset test = linear_data(50, 0.0, rng);
  auto model = make_regressor(GetParam());
  EXPECT_FALSE(model->fitted());
  model->fit(train);
  EXPECT_TRUE(model->fitted());
  const MetricReport report = compute_metrics(
      test.y, model->predict_many(test.x), test.num_features());
  EXPECT_GT(report.r2, 0.8) << to_string(GetParam());
}

TEST_P(AllRegressorsTest, PredictManyMatchesPointwise) {
  Rng rng(61);
  const Dataset data = linear_data(60, 0.1, rng);
  auto model = make_regressor(GetParam());
  model->fit(data);
  const std::vector<double> batch = model->predict_many(data.x);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model->predict(data.x.row(i)));
  }
}

TEST_P(AllRegressorsTest, NameMatchesKind) {
  auto model = make_regressor(GetParam());
  EXPECT_EQ(model->name(), to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllRegressorsTest,
                         ::testing::Values(RegressorKind::kGpr,
                                           RegressorKind::kLinear,
                                           RegressorKind::kRegressionTree,
                                           RegressorKind::kSvr),
                         [](const auto& info) { return to_string(info.param); });

TEST(Evaluation, GprBeatsLinearOnNonlinearTarget) {
  // The paper picks GPR for its accuracy; on a smooth nonlinear target
  // GPR must clearly beat a straight line.
  Rng rng(71);
  const Dataset train = sine_data(80, 0.02, rng);
  const Dataset test = sine_data(40, 0.0, rng);
  GPRegressor gpr;
  LinearRegression lm;
  gpr.fit(train);
  lm.fit(train);
  const MetricReport gpr_report = compute_metrics(
      test.y, gpr.predict_many(test.x), test.num_features());
  const MetricReport lm_report = compute_metrics(
      test.y, lm.predict_many(test.x), test.num_features());
  EXPECT_LT(gpr_report.mse, lm_report.mse);
}

}  // namespace
}  // namespace qaoaml::ml
